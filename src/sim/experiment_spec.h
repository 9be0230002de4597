#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "core/factory.h"
#include "sim/experiment.h"
#include "sim/workloads.h"
#include "trace/profile.h"

/// Experiments as data.
///
/// Every paper figure is a sweep of independent (workload, policy, seed)
/// simulation points. An ExperimentSpec is the *description* of such a
/// study — serializable (binary archive and a line-oriented text form meant
/// to be written by hand), expandable into a flat vector of self-contained
/// JobSpec units, and executable by any ExperimentBackend (sim/backend.h):
/// in-process on the thread pool, or fanned out to `mflushsim --worker`
/// subprocesses. A job file plus the binary is everything a remote host
/// needs, which is what makes the spec the unit of distribution.
namespace mflush {

/// How the measured interval of each point is obtained.
enum class RunMode : std::uint8_t {
  /// Warm up `warmup` cycles, then measure `measure` cycles — the paper's
  /// fixed-interval methodology.
  FullRun = 0,
  /// SMARTS-style sampled simulation: warm one parent chip per point,
  /// checkpoint it, and fork measured intervals off the snapshot (each
  /// advanced a different stride past the checkpoint). With a target
  /// confidence half-width set, rounds of forks are added until the
  /// interval-mean IPC is estimated tightly enough (see SampledConfig).
  Sampled = 1,
};

/// Sampled-mode knobs.
struct SampledConfig {
  /// Forks per point and per round.
  std::uint32_t forks = 8;
  /// Cycles between consecutive forks' measurement starts (de-correlates
  /// the sampled intervals). 0 means measure/2.
  Cycle fork_stride = 0;
  /// SMARTS-style stopping rule: keep adding rounds of `forks` intervals
  /// until the 95% confidence half-width of the mean IPC, relative to the
  /// mean, drops to this value. 0 disables the rule (single fixed round).
  double target_half_width = 0.0;
  /// Hard cap on rounds when the stopping rule is active.
  std::uint32_t max_rounds = 4;

  bool operator==(const SampledConfig&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(forks, fork_stride, target_half_width, max_rounds);
  }
};

/// One self-contained simulation unit — everything a worker (thread or
/// subprocess, local or remote) needs to produce one RunResult.
///
/// Exactly one of three shapes:
///  * catalog job: `workload` codes resolve against the SPEC2000 catalog;
///  * profile job: `profiles` non-empty — an ad-hoc chip built from custom
///    BenchmarkProfiles (workload.name is just the display label);
///  * fork job: `snapshot` set (or resolvable via `parent_key`) —
///    reconstruct the pre-warmed chip, advance `fork_advance` cycles, then
///    measure.
struct JobSpec {
  /// Dense result-slot index within one experiment.
  // lint: hand-coded — wire identity, written by save() ahead of the walk;
  // the content key must be the same for identical work regardless of
  // slot position
  std::uint32_t id = 0;
  Workload workload;
  std::vector<BenchmarkProfile> profiles;
  PolicySpec policy;
  std::uint64_t seed = 1;
  Cycle warmup = 0;
  Cycle measure = 0;
  Cycle fork_advance = 0;
  /// Main-memory timing model + DRAM knobs the chip is built with (the
  /// memory latency distribution as a sweep axis).
  MemModelKind mem_model = MemModelKind::Fixed;
  DramConfig dram{};
  /// Content hash of this job's warmed parent (warmstore::warm_key: the
  /// campaign::job_key of the parent job, which also names the parent's
  /// warm-store entry). On a
  /// fork job it lets the snapshot travel by reference: a host whose warm
  /// store already holds the parent resolves the hash locally instead of
  /// receiving the bytes; a host without the entry warms the parent
  /// itself, deterministically (run_fork_group). 0 = no warm-store
  /// identity.
  std::uint64_t parent_key = 0;
  // lint: hand-coded — the tagged snapshot tail after the walk, which the
  // wire form and the content form write differently
  std::shared_ptr<const std::vector<std::uint8_t>> snapshot;

  /// Every field but `id` and the snapshot tail, in stream order: the
  /// body shared by the wire form (save) and the content form
  /// (save_content).
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(workload, profiles, policy, seed, warmup, measure, fork_advance,
          parent_key);
    ar.enum_u8(mem_model, MemModelKind::Fixed, MemModelKind::BankedDram,
               "JobSpec::mem_model");
    ar.io(dram);
  }

  /// Serialize/deserialize for the worker job-file protocol. Attached
  /// snapshot bytes are embedded inline (the upload); a by-reference fork
  /// (`parent_key` set, bytes stripped) ships only the hash.
  void save(ArchiveWriter& ar) const;
  [[nodiscard]] static JobSpec load(ArchiveReader& ar);

  /// Canonical *content* serialization: every field that determines the
  /// job's RunResult — workload, profiles, policy, seed, intervals,
  /// fork_advance, memory model + DRAM knobs, snapshot identity — but NOT
  /// `id`, which is a
  /// result-slot index, not content. A job with a parent_key is
  /// canonicalized by the hash alone (the key pins the exact snapshot
  /// bytes), so its content is stable whether or not the bytes happen to
  /// be attached — which keeps campaign::job_key (sim/campaign.h) a safe
  /// cache key across specs, campaigns, and by-ref/resolved copies of the
  /// same fork. Any field added here must bump campaign::kFormatVersion.
  void save_content(ArchiveWriter& ar) const;
};

/// Execute one job to completion (the single definition of "run a point"
/// every backend shares — cross-backend bit-identity rests on this). A
/// fork job runs as a fork group of one (run_fork_group).
[[nodiscard]] RunResult run_job(const JobSpec& job);

/// Receives forks[k]'s result as soon as fork k's window ends.
using ForkResultFn = std::function<void(std::size_t k, RunResult result)>;

/// Run one fork group as a single pass. Every fork shares forks.front()'s
/// parent (its attached snapshot, else its parent_key), in any advance
/// order (fork_group_end finds such runs). The parent chip is taken once:
/// built from the attached or registry bytes, or — when this caller wins
/// the single-flight warm (warmstore::parent_snapshot) — the live warmed
/// chip itself, whose capture is published for everyone else.
///
/// The chip then runs once, straight to the last window's end, and takes
/// a CmpSimulator::tally at each boundary: a fork's advance or its end,
/// in time order. Each fork's metrics are metrics_between the tallies at
/// its advance and its end, so each cycle is simulated once, nothing is
/// reset and no second chip is built. Each result equals run_job of that
/// fork alone (full SimMetrics, workload, policy), which resets at its
/// advance: a reset touches counters only
/// (Cmp.ResetStatsLeavesTheTrajectoryAlone), and every counter is a plain
/// accumulator (Cmp.TallyDifferenceMatchesReset). Results arrive in end
/// order, ties in fork order; with differing measures that need not be
/// fork order. The throughput self-report splits the pass among its
/// results: a fork's simulated_cycles are the cycles the pass ran since
/// the previous result, and its wall_seconds the time since the previous
/// result (the first since the parent bytes were in hand, or since the
/// warm ended), so the group sums to what it ran: the last window's end.
void run_fork_group(std::span<const JobSpec> forks,
                    const ForkResultFn& on_result);

/// One past the last job of the fork group starting at jobs[begin]: the
/// following jobs stay in the group while they share its non-zero
/// parent_key, whatever their fork_advance. Any other job is a group of
/// one (begin + 1). The group is the unit every scheduler keeps whole: one
/// task (InProcessBackend), one batch (remote::batch_ranges), one pass
/// (run_fork_group).
[[nodiscard]] std::size_t fork_group_end(std::span<const JobSpec> jobs,
                                         std::size_t begin);

/// A full study: workload set x policy set x seed set x interval x mode.
struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<Workload> workloads;
  std::vector<PolicySpec> policies;
  std::vector<std::uint64_t> seeds = {1};
  Cycle warmup = 30'000;
  Cycle measure = 120'000;
  RunMode mode = RunMode::FullRun;
  SampledConfig sampled;
  /// Memory model every point's chip is built with (text keys: mem_model,
  /// dram_*). Fixed (the default) reproduces the paper's 250-cycle memory.
  MemModelKind mem_model = MemModelKind::Fixed;
  DramConfig dram{};

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(name, workloads, policies, seeds, warmup, measure);
    ar.enum_u8(mode, RunMode::FullRun, RunMode::Sampled,
               "ExperimentSpec::mode");
    ar.io(sampled);
    ar.enum_u8(mem_model, MemModelKind::Fixed, MemModelKind::BankedDram,
               "ExperimentSpec::mem_model");
    ar.io(dram);
  }

  /// Points = seeds x workloads x policies (seed-major, policy-minor: the
  /// flat index of (s, w, p) is (s*W + w)*P + p, so a single-seed spec
  /// expands workload-major: one row per workload, policies across).
  [[nodiscard]] std::size_t num_points() const noexcept {
    return seeds.size() * workloads.size() * policies.size();
  }

  /// Throws std::runtime_error naming the first problem (empty sets,
  /// zero measure, bad sampled config).
  void validate() const;

  /// Expand into self-contained jobs, ids 0..n-1 in point order.
  ///
  /// FullRun: one job per point. Sampled: `sampled.forks` fork jobs per
  /// point, each referencing the point's warmed parent by content hash
  /// (`parent_key` = warmstore::warm_key) — expansion itself runs **no**
  /// warm-up simulation. The warm phase of run_experiment (sim/backend.h)
  /// attaches the bytes of parents a WarmStore or the process already
  /// holds; forks of a cold parent warm it where they run. The stopping
  /// rule then builds additional fork rounds from the round-0 jobs.
  [[nodiscard]] std::vector<JobSpec> expand() const;

  // --- serialization -----------------------------------------------------
  // Binary: magic/version/fields/checksum archive, rejected on any
  // corruption or version skew. Text: the hand-authorable line format
  // ("key value" lines, '#' comments — see to_text() output or
  // examples/quickstart). read_file sniffs the magic to pick the decoder.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  [[nodiscard]] static ExperimentSpec from_bytes(
      std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static ExperimentSpec from_text(std::string_view text);
  [[nodiscard]] static ExperimentSpec read_file(const std::string& path);
  void write_file(const std::string& path, bool binary = false) const;
};

}  // namespace mflush
