#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/backend.h"
#include "sim/blobstore.h"

/// Durable campaigns: crash-survivable, resumable experiment runs.
///
/// A campaign directory makes any experiment run survivable over any
/// ExperimentBackend:
///
///   DIR/spec.mfc      canonical ExperimentSpec archive (binary form)
///   DIR/cache/        content-addressed result store (a BlobStore), one
///                     file per completed job keyed by job_key() hex
///                     (relocatable via Options::cache_dir — mflushd
///                     shares one cache across every tenant's campaign)
///
/// That is the whole durable state. A job is done exactly when a valid
/// cache entry exists under its content key: every result is published
/// through write-temp + fsync + atomic rename before anything downstream
/// (sink, follower, narration) sees it, and every run — fresh or resumed —
/// checks the cache job by job before executing, so a SIGKILL at any point
/// loses at most the jobs whose entries were not yet renamed into place.
/// Nothing records dispatch or failure: a job that was running or failed
/// at the crash simply has no entry and runs again.
///
/// Bit-identity contract: a resumed campaign's collected results — full
/// SimMetrics, every field — equal an uninterrupted SerialBackend run of
/// the same spec, because cached results are raw-byte round trips of
/// deterministic run_job output
/// (CampaignTest.KilledMidCampaignResumesToTheUninterruptedResult).
namespace mflush {
namespace campaign {

/// Version of the on-disk campaign formats: the cache entry layout AND the
/// job-key canonicalization. Same rules as snapshot::kFormatVersion: bump
/// on ANY change (a field added to JobSpec::save_content included), no
/// migrations — stale cache keys simply never match again.
///
/// v2: JobSpec content gained the warm-job flag + parent_key, and fork
/// jobs are canonicalized by their parent's content hash instead of the
/// embedded snapshot bytes (the key no longer changes when a by-reference
/// fork is resolved to inline bytes).
/// v4: STALL results count their response actions (policy_stall_events
/// was always 0), so a v3 cache entry holds a stale result for unchanged
/// job content.
/// v5: the policy_* counters cover the measured interval only (they used
/// to include the warm-up), so a v4 cache entry holds a stale result.
/// v6: JobSpec content lost the warm-job flag.
/// v7: cache entries end with the word-wise envelope::checksum. (So did the
/// records of the campaign journal, since removed: a journal.wal left by an
/// older build is ignored.)
inline constexpr std::uint32_t kFormatVersion = 7;

/// Stable content hash of a job's canonical serialization
/// (JobSpec::save_content: config/workload/profiles, policy, seed, warmup,
/// measure, fork_advance, snapshot identity — embedded bytes, or the
/// parent content hash for by-reference forks — everything except the
/// result-slot id), domain-separated with a magic + kFormatVersion prefix
/// so key semantics can never silently drift across format bumps.
[[nodiscard]] std::uint64_t job_key(const JobSpec& job);

/// Fixed-width lowercase hex of a key — cache file stems and narration.
[[nodiscard]] std::string key_hex(std::uint64_t key);

}  // namespace campaign

/// Owns one campaign directory: the canonical spec and the result cache.
/// record_done is durable (fsync'd) before it returns and safe to call from
/// concurrent backend threads.
class CampaignStore {
 public:
  struct Options {
    /// Serialized narration ("campaign: ..." lines): resume, spec
    /// rotation, cache-hit counts, unreadable cache entries.
    std::function<void(const std::string&)> on_event;
    /// Where content-addressed result entries live. Empty (the default)
    /// keeps the classic private DIR/cache. mflushd points every tenant's
    /// campaign at one shared directory so overlapping submissions dedup
    /// against each other: entries are keyed by job content and published
    /// by atomic rename, so concurrent same-key writers are benign (last
    /// rename wins with identical bytes) and a reader either sees a whole
    /// entry or a miss.
    std::string cache_dir;
  };

  /// Start a campaign in `dir` (created if missing). If `dir` already
  /// holds byte-identical `spec`, throws — pass --resume instead of
  /// silently restarting a resumable run. If it holds a *different* spec,
  /// that generation is rotated aside (spec.N.mfc) — while the shared
  /// result cache makes the overlap between the specs free.
  [[nodiscard]] static CampaignStore create(const std::string& dir,
                                            const ExperimentSpec& spec,
                                            Options options = {});

  /// Continue the campaign in `dir`: load its archived spec. What is done
  /// is whatever the result cache holds. Throws when `dir` holds no
  /// spec.mfc.
  [[nodiscard]] static CampaignStore resume(const std::string& dir,
                                            Options options = {});

  CampaignStore(CampaignStore&&) noexcept;
  CampaignStore& operator=(CampaignStore&&) = delete;
  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  [[nodiscard]] const ExperimentSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Publish the result to the cache (put-if-absent: an entry already
  /// there holds the same bytes and is left alone). After this returns, a
  /// crash at any point leaves the result recoverable.
  void record_done(const JobSpec& job, const RunResult& result);

  /// The cached result for this job's content key, when a valid cache
  /// entry exists (a corrupt or mismatched entry is deleted, narrated, and
  /// read as a miss, so the job re-executes and republishes it). This is
  /// the resume/cross-spec-overlap fast path.
  [[nodiscard]] std::optional<RunResult> cached(const JobSpec& job) const;

  void event(const std::string& line) const;

 private:
  CampaignStore(std::string dir, ExperimentSpec spec, Options options);

  std::string dir_;
  /// The result cache (owned through a pointer: CampaignStore moves).
  std::unique_ptr<BlobStore> cache_;
  ExperimentSpec spec_;
  Options opts_;
  /// Crash-injection hook (CI/tests, like HostSpec fail=N): when
  /// MFLUSH_CAMPAIGN_KILL_AFTER=N is set, the process raises SIGKILL
  /// immediately after the Nth result of this session becomes durable —
  /// a deterministic coordinator crash mid-campaign.
  std::uint64_t kill_after_ = 0;
  /// Atomic: record_done runs on concurrent backend threads.
  std::atomic<std::uint64_t> done_this_session_{0};
};

/// run_experiment through `store`: jobs whose key is already cached stream
/// straight from the cache; the rest execute on `backend`
/// (Serial/InProcess/Worker/Remote — unchanged) and are published to the
/// cache as each result lands. Emits a final
/// "campaign: finished (<executed> executed, <cached> cached)" event.
/// Returns the full job-id-ordered result vector, bit-identical to an
/// uninterrupted run_experiment of the same spec. `options` carries the
/// warm store / warm events for sampled specs (see RunOptions); warmed
/// parents never enter the result cache — the warm store is their
/// durability layer.
std::vector<RunResult> run_experiment_durable(CampaignStore& store,
                                              ExperimentBackend& backend,
                                              ResultSink& sink,
                                              const RunOptions& options = {});

}  // namespace mflush
