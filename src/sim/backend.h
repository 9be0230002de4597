#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment_spec.h"

/// Interchangeable execution backends for expanded experiments.
///
/// The contract every backend honours: given the same job vector, the
/// RunResult for each job id is bit-identical (full SimMetrics equality) to
/// executing run_job(job) in a plain serial loop — only wall-clock timing
/// fields may differ. Results stream into a ResultSink as jobs finish (any
/// order); collect() restores job-id order, so a sweep's output never
/// depends on scheduling. Tested by BackendTest.CrossBackendDeterminism.
namespace mflush {

class ParallelRunner;
class WarmStore;

/// Streaming result collection: an optional on_result callback fires as
/// each job completes (completion order, serialized — never concurrently),
/// and collect() returns every result ordered by job id.
class ResultSink {
 public:
  using OnResult = std::function<void(const JobSpec&, const RunResult&)>;

  ResultSink() = default;
  explicit ResultSink(OnResult on_result)
      : on_result_(std::move(on_result)) {}

  /// Record the result of `job` (thread-safe; slot = job.id). Fires the
  /// callback while holding the sink lock, so callbacks must not re-enter
  /// the sink or block on the backend.
  void push(const JobSpec& job, RunResult result);

  [[nodiscard]] std::size_t completed() const;

  /// Copy of the result in slot `id`; throws if that job has not finished.
  [[nodiscard]] RunResult at(std::size_t id) const;

  /// All results ordered by job id; throws if any slot is still empty
  /// (a backend bug — backends only return from run() when every job is
  /// done). Leaves the sink intact, so sampled-mode rounds can keep
  /// appending after an intermediate collect.
  [[nodiscard]] std::vector<RunResult> collect() const;

 private:
  mutable std::mutex m_;
  std::vector<std::optional<RunResult>> slots_;
  OnResult on_result_;
};

/// Executes a batch of jobs. run() returns once every job's result has been
/// pushed into the sink; the first job failure is rethrown after the batch
/// drains.
class ExperimentBackend {
 public:
  virtual ~ExperimentBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void run(const std::vector<JobSpec>& jobs, ResultSink& sink) = 0;

  /// Backend for warm work kept apart from measured jobs, by default the
  /// backend itself. The library never calls it — a fork group warms its
  /// own parent where it runs (run_fork_group) — it is an extension point
  /// for decorators, e.g. timing wrappers.
  [[nodiscard]] virtual ExperimentBackend& warmup_backend() noexcept {
    return *this;
  }

  /// Convenience: run into a fresh sink and return the ordered results.
  [[nodiscard]] std::vector<RunResult> run_collect(
      const std::vector<JobSpec>& jobs);
};

/// The reference loop: jobs run one after another on the calling thread, in
/// vector order. Every other backend is tested against this one.
class SerialBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::string name() const override { return "serial"; }
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;
};

/// Jobs fan out across a ParallelRunner thread pool within this process.
/// Each run of consecutive forks of one parent (fork_group_end) is one
/// task, a single pass through run_fork_group; every other job is a task
/// of its own through run_job, in vector order.
class InProcessBackend final : public ExperimentBackend {
 public:
  /// Default: the process-wide shared pool (MFLUSH_JOBS threads).
  InProcessBackend();
  explicit InProcessBackend(ParallelRunner& pool) : pool_(&pool) {}

  [[nodiscard]] std::string name() const override { return "inprocess"; }
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override;

 private:
  ParallelRunner* pool_;
};

/// Removes its paths on destruction unless told to keep them — the remote
/// backend wraps every scratch .mfj/.mfr pair in one of these so
/// protocol files cannot leak when a worker dies, writes a corrupt result,
/// or a transport throws (the old post-success remove() calls were
/// unreachable on those paths).
class ScratchGuard {
 public:
  explicit ScratchGuard(std::vector<std::string> paths, bool keep = false)
      : paths_(std::move(paths)), keep_(keep) {}
  ~ScratchGuard();
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  std::vector<std::string> paths_;
  bool keep_;
};

namespace proc {

/// Run `bin args...` to completion (PATH lookup via posix_spawnp) and
/// return its exit code. Throws on spawn failure or death by signal; a
/// non-empty `what` (e.g. "batch 2 (jobs 4-7)") is woven into those
/// messages so a dead worker names the work it was running, not just the
/// binary. A nonzero `timeout_s` is a wall-clock deadline: a child still
/// running at the deadline is SIGKILLed, reaped, and reported as a throw
/// naming the timeout — so a wedged subprocess (a hung ssh, a stuck
/// worker) surfaces as an ordinary failure instead of blocking forever.
int spawn_and_wait(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& what = {}, unsigned timeout_s = 0);

}  // namespace proc

/// Record argv[0] at process startup (mflushsim does this first thing in
/// main). default_worker_binary falls back to it where /proc/self/exe is
/// unavailable (non-Linux) — without it, discovery silently returned empty
/// there and the backend error fired even though the binary was findable.
void record_argv0(const char* argv0);

/// Resolve a worker binary near the executable at `exe`: `exe` itself when
/// it is named mflushsim, else a sibling `mflushsim` in the same directory
/// (the build-tree layout, which is how the test binaries find the worker).
/// Empty string when neither exists.
[[nodiscard]] std::string worker_binary_near(const std::string& exe);

/// Resolve the worker binary, first match wins: $MFLUSH_WORKER_BIN;
/// worker_binary_near(/proc/self/exe); worker_binary_near(recorded
/// argv[0]). Empty string only when every source genuinely fails.
[[nodiscard]] std::string default_worker_binary();

/// Knobs threaded through run_experiment / run_experiment_durable.
struct RunOptions {
  /// Warm store consulted by the sampled-mode warm phase and filled by the
  /// end of the run. Null still works — cold parents warm where their
  /// forks run and are shared through the in-process registry — but
  /// nothing persists across processes.
  WarmStore* warm_store = nullptr;
  /// Warm-phase narration, one line once the run is over ("N parent(s): H
  /// reused, W warmed"). The CLI wires report::event_printer(std::cerr,
  /// "warm-store: ").
  std::function<void(const std::string&)> on_event;
};

/// The sampled-mode warm phase: attach parent snapshot bytes to every
/// by-reference fork in `jobs` whose parent is already known — from the
/// warm store (options.warm_store) or the in-process registry (healing the
/// store entry back when one is configured). No simulation runs here and
/// `backend` is not used: a fork whose parent is cold stays by-reference,
/// and whichever process runs it warms the parent there
/// (warmstore::parent_snapshot, once per process; a worker also stores it
/// in its host store). No-op for job vectors without parent references
/// (FullRun, pre-resolved forks).
void resolve_parent_snapshots(std::vector<JobSpec>& jobs,
                              ExperimentBackend& backend,
                              const RunOptions& options = {});

/// Execute a full spec on a backend. FullRun specs are expand()ed and run
/// as one batch. Sampled specs first attach every known parent (see
/// resolve_parent_snapshots), then run round by round — each cold parent
/// warms where its group's forks run, never on the coordinator thread:
/// after each round the 95% confidence half-width of every point's mean
/// IPC is computed from its fork results, and points whose relative
/// half-width still exceeds sampled.target_half_width get another round of
/// forks (continuing the fork_advance stride off the same parent) until
/// they converge or sampled.max_rounds is reached — the SMARTS-style
/// stopping rule. Deterministic for any backend: the rule only consumes
/// job results, which are themselves backend-independent. By the end of
/// the run every parent this process or a local worker warmed is in
/// options.warm_store, and the warm-phase line has been narrated.
///
/// Returns all results ordered by job id (sampled mode: round-0 forks for
/// every point first, then continuation rounds in creation order).
std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink,
                                      const RunOptions& options);

std::vector<RunResult> run_experiment(const ExperimentSpec& spec,
                                      ExperimentBackend& backend,
                                      ResultSink& sink);

/// run_experiment into a sink with no callback.
[[nodiscard]] std::vector<RunResult> run_experiment(
    const ExperimentSpec& spec, ExperimentBackend& backend);

// ------------------------------------------------------ worker protocol
//
// Both files are sealed envelopes (common/envelope.h): magic, version,
// u64 count, the entries, trailing FNV-1a. Readers reject bad magic,
// version skew, checksum mismatch and trailing bytes outright — a corrupt
// job must fail loudly, never half-run.
namespace worker {

/// v2: JobSpec gained the warm-job flag + parent_key (with a by-reference
/// snapshot tag) and RunResult gained the warm-job payload.
/// v4: JobSpec lost the warm-job flag.
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Per-process unique scratch-file stem inside `dir` (pid + monotonic
/// counter + leading job id), used by the remote backend so concurrent
/// attempts can never collide on a file name.
[[nodiscard]] std::string scratch_stem(const std::string& dir,
                                       std::uint32_t job_id);

void write_job_file(const std::string& path,
                    const std::vector<JobSpec>& jobs);
[[nodiscard]] std::vector<JobSpec> read_job_file(const std::string& path);

void write_result_file(
    const std::string& path,
    const std::vector<std::pair<std::uint32_t, RunResult>>& results);
[[nodiscard]] std::vector<std::pair<std::uint32_t, RunResult>>
read_result_file(const std::string& path);

/// In-memory forms of the result-file archive. encode produces the exact
/// checksummed byte stream write_result_file writes; decode validates
/// magic, version, checksum, and trailing bytes the same way
/// read_result_file does, with `what` woven into errors in place of a
/// path. The campaign result cache (sim/campaign.h) stores one-entry
/// result archives, so a cache entry is readable by the same decoder the
/// worker protocol trusts.
[[nodiscard]] std::vector<std::uint8_t> encode_results(
    const std::vector<std::pair<std::uint32_t, RunResult>>& results);
[[nodiscard]] std::vector<std::pair<std::uint32_t, RunResult>>
decode_results(std::span<const std::uint8_t> bytes, const std::string& what);

/// The `mflushsim --worker` entry point: read the job file, run every job,
/// write the result file. Returns a process exit code (0 on success).
///
/// Each fork group (fork_group_end) runs as one pass through
/// run_fork_group; every other job through run_job.
/// A non-empty `store_dir` opens the host-side WarmStore
/// (`--worker-store`): embedded parent snapshots are installed into it
/// before anything runs (so one upload serves every later batch on this
/// host), by-reference fork groups resolve their bytes from it, and a
/// parent a group had to warm here is stored once the group's first fork
/// has its result. Without a store, by-ref forks still warm their parent
/// in-process.
/// With `write_parts` (`--worker-parts`), every job's result is
/// additionally written — atomically, as a one-entry result archive — to
/// `result_path + ".r<job_id>"` the moment the job finishes, so a
/// coordinator sharing the filesystem (LocalTransport) can stream results
/// before the batch completes. The part entry is the same RunResult the
/// final file carries, encoded by the same writer: byte-identical. The
/// final result file remains authoritative; parts are never the only copy.
int run_worker(const std::string& job_path, const std::string& result_path,
               const std::string& store_dir = {}, bool write_parts = false);

}  // namespace worker
}  // namespace mflush
