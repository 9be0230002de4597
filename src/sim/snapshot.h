#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/cmp.h"

/// Snapshot/fork checkpointing for CmpSimulator.
///
/// A snapshot is a self-describing binary blob: a header identifying the
/// simulation (format version, full SimConfig, workload, policy spec)
/// followed by the complete mutable state (trace-source RNGs and rings,
/// caches, TLBs, MSHRs, bus/L2/memory queues, pipeline pools, rename maps,
/// branch predictor, policy state, statistics) and a trailing FNV-1a
/// checksum. Restoring a snapshot and running N cycles is bit-identical to
/// never having snapshotted — tested by SnapshotTest.ResumeMatchesContinuous.
///
/// Versioning rules: kFormatVersion MUST be bumped whenever any save_state
/// layout changes (a field added/removed/reordered anywhere in the chain).
/// Loaders reject any version mismatch outright — there are no migrations;
/// snapshots are cheap to regenerate, correctness is not.
namespace mflush::snapshot {

/// v2: per-core local clocks (CmpSimulator sleep state) + WakeupWheel
/// release cycles joined the stream.
/// v3: canonical bytes — every raw-memcpy'd record carries explicit
/// zero-initialized padding and the L2 miss statistic is serialized
/// field-wise, so equal warmed state yields byte-identical snapshots across
/// processes.
/// v5: FLUSH, STALL and MFLUSH share one outstanding-load record
/// (token, issue, deadline, tid) and one fired-token array.
/// v6: the L2 load-miss statistic is a plain count (MemStats::l2_load_misses)
/// instead of a mean/variance/min/max accumulator.
inline constexpr std::uint32_t kFormatVersion = 6;

/// Serialize the full simulator state (header + state + checksum).
[[nodiscard]] std::vector<std::uint8_t> capture(const CmpSimulator& sim);

/// Restore state into an existing simulator built from the *same*
/// (config, workload, policy); throws std::runtime_error on any mismatch,
/// version skew, or corruption. This is the in-memory fork primitive: one
/// warmed chip's bytes restore into many simulators.
void restore(CmpSimulator& sim, std::span<const std::uint8_t> bytes);

/// Construct a simulator from the snapshot's own embedded header, then
/// restore its state. The workload must be resolvable from benchmark codes
/// (every named/code workload is; ad-hoc BenchmarkProfile runs are not).
[[nodiscard]] std::unique_ptr<CmpSimulator> make(
    std::span<const std::uint8_t> bytes);

// File convenience wrappers (the CLI's --save-snapshot/--load-snapshot).
void save_file(const std::string& path, const CmpSimulator& sim);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);
[[nodiscard]] std::unique_ptr<CmpSimulator> load_file(
    const std::string& path);

}  // namespace mflush::snapshot
