#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/blobstore.h"
#include "sim/experiment_spec.h"

/// Content-addressed store of warmed parent snapshots.
///
/// Warm-up dominates sampled campaigns, and the warmed state of a parent
/// chip is a pure function of its job content (workload, profiles, policy,
/// seed, warmup cycles) — so it is cacheable by content hash exactly like
/// the campaign result cache. A WarmStore is a BlobStore directory of
/// `<16-hex-key>.mfws` entries shared across specs, campaigns, backends,
/// and — through the worker protocol's `--worker-store` — remote hosts: a
/// host whose store already holds a parent receives the 8-byte hash
/// instead of the multi-megabyte snapshot.
///
/// An entry is the parent's snapshot (sim/snapshot.h) byte for byte, named
/// by campaign::job_key of the parent job: the store has no layout and no
/// key derivation of its own. Versioning follows the tree-wide
/// no-migrations rule: a change to the job content moves the key (through
/// campaign::kFormatVersion), and an entry of another snapshot version
/// fails the snapshot's own header check. Either way an old entry is never
/// misread: it misses, or is discarded, and the parent re-warms. A damaged
/// entry (torn write, bit flip) fails the snapshot's trailing checksum,
/// and is discarded and re-warmed the same way — see ROADMAP "Warm-store
/// key derivation & versioning".
namespace mflush {

namespace warmstore {

/// Content hash naming a fork job's warmed parent: campaign::job_key of
/// the parent job (workload/profile bytes, policy, seed, warmup — policy
/// is deliberately included: warm-up simulation is policy-dependent and
/// snapshot::restore rejects a policy mismatch). Measure/fork_advance/id
/// do not participate — every fork of a point maps to the same key.
[[nodiscard]] std::uint64_t warm_key(const JobSpec& job);

/// The parent of `fork`, as the job run_fork_group warms it from: same
/// workload, profiles, policy, seed, and warmup, measure and fork_advance
/// zeroed, `parent_key` = warm_key(fork). `id` is 0.
[[nodiscard]] JobSpec warm_job_of(const JobSpec& fork);

/// Process-wide in-memory registry of parent snapshot bytes, keyed by
/// warm_key. This is the "map read-only state once per process" layer:
/// every fork of a parent — across specs and rounds in the same process —
/// shares one immutable byte vector. parent_snapshot fills it (a by-ref
/// fork group publishes the parent it warmed) and the warm phase in
/// run_experiment recalls it before leaving a parent cold. Null when the
/// key is absent.
[[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> recall(
    std::uint64_t key);

/// The parent snapshot of by-reference fork `fork` (keyed by its
/// parent_key): the registry's copy, or the bytes `warm` returns — the
/// capture of a fresh warm of warm_job_of(fork) — published before they
/// are returned. `warm` runs only in the caller that wins the warm, so
/// that caller can keep the live chip it captured. Single-flight per key:
/// concurrent callers for one parent block until the first caller's warm
/// lands instead of repeating it; if that warm throws, a waiter takes
/// over.
[[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>>
parent_snapshot(
    const JobSpec& fork,
    const std::function<std::shared_ptr<const std::vector<std::uint8_t>>()>&
        warm);

/// Warms parent_snapshot has run in this process (each one a cold key).
[[nodiscard]] std::uint64_t warm_count();

}  // namespace warmstore

/// One warm-store directory: a BlobStore (persistence, corrupt-entry
/// healing, counters) whose entries are snapshots. Every lookup reads the
/// disk, the source of truth shared between instances, processes, and
/// hosts; the in-memory copies of a process live in the registry above.
/// Thread-safe.
class WarmStore {
 public:
  struct Options {
    /// Narration sink for store events (corrupt-entry discards). Wire
    /// report::event_printer(std::cerr, "warm-store: ") in the CLI.
    std::function<void(const std::string&)> on_event;
  };

  /// hits/misses count lookup()s, each one a disk read.
  using Stats = BlobStore::Stats;

  /// Creates `dir` (and parents) if missing; throws on failure.
  explicit WarmStore(std::string dir, Options options = {});

  [[nodiscard]] const std::string& dir() const noexcept {
    return blobs_.dir();
  }
  [[nodiscard]] std::string path_of(std::uint64_t key) const {
    return blobs_.path_of(key);
  }

  /// A parent's snapshot bytes, or null on a miss. An entry that fails
  /// snapshot::check (damaged, or of another snapshot version) is a miss:
  /// deleted and narrated, so the parent re-warms and is rewritten.
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> lookup(
      std::uint64_t key);

  /// Durably store a parent's snapshot bytes as they are, put-if-absent.
  /// No-op for null key/bytes.
  void put(std::uint64_t key,
           const std::shared_ptr<const std::vector<std::uint8_t>>& bytes);

  /// Whether an entry exists (no validation — lookup decides).
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return blobs_.contains(key);
  }

  [[nodiscard]] Stats stats() const { return blobs_.stats(); }

 private:
  BlobStore blobs_;
};

}  // namespace mflush
