#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchlib.h"
#include "sim/backend.h"
#include "sim/experiment_spec.h"

/// The benchmark's three workloads and the pieces they share.
namespace perfbench {

/// Everything one invocation was asked to do.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned width = 1;      ///< parallel width (threads / worker slots)
  std::string run_dir;     ///< scratch root inside the checkout
  std::string out_dir;     ///< where the span file is written
  std::string mflushsim;   ///< worker / daemon binary
  std::string self_exe;    ///< this binary (sampled_dram coordinators)
};

/// What a workload reports back to main().
struct Outcome {
  Metrics end_to_end;
  Metrics layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;  ///< of `failed`: results that differed
  std::string digest;  ///< FNV-1a over every delivered SimMetrics
  std::vector<std::string> notes;
};

[[nodiscard]] Outcome run_grid_fixed(const RunArgs& args);
[[nodiscard]] Outcome run_sampled_dram(const RunArgs& args);
[[nodiscard]] Outcome run_served_mix(const RunArgs& args);

/// `perfbench --coordinator ...`: one sampled_dram iteration in a fresh
/// process (see workloads.cpp). Returns the process exit code.
int sampled_coordinator(int argc, char** argv);

// ------------------------------------------------------- shared helpers

/// Serial run_job of every job: the untimed reference each delivered
/// result is compared against.
[[nodiscard]] std::vector<mflush::RunResult> serial_reference(
    const std::vector<mflush::JobSpec>& jobs);

/// Bit-for-bit comparison (SimMetrics ==, plus the labels).
[[nodiscard]] bool same_result(const mflush::RunResult& a,
                               const mflush::RunResult& b);

/// FNV-1a over the canonical encoding of the results with host timing
/// zeroed — equal digests mean equal simulated output.
[[nodiscard]] std::string results_digest(
    const std::vector<mflush::RunResult>& results);

/// Simulated core-cycles a job costs: warm-up (or fork advance) plus the
/// measured interval, times the chip's cores.
[[nodiscard]] double core_cycles(const mflush::JobSpec& job);

/// Runs a backend and records, as spans, the batch call and each job's
/// completion (from the ResultSink callback and RunResult::wall_seconds).
/// warmup_backend() is wrapped the same way under its own span name.
class TimedBackend final : public mflush::ExperimentBackend {
 public:
  TimedBackend(mflush::ExperimentBackend& inner, Tracer& tracer,
               std::string batch_span, std::string warm_span = {},
               int parent = -1);
  ~TimedBackend() override;
  TimedBackend(const TimedBackend&) = delete;
  TimedBackend& operator=(const TimedBackend&) = delete;

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void run(const std::vector<mflush::JobSpec>& jobs,
           mflush::ResultSink& sink) override;
  [[nodiscard]] mflush::ExperimentBackend& warmup_backend() noexcept override;

  /// Parent span of the next batch (and of warm batches).
  void set_parent(int parent) noexcept;
  /// Sum of RunResult::wall_seconds over every job this backend ran,
  /// warm jobs through warmup_backend() included.
  [[nodiscard]] double job_seconds() const noexcept {
    return job_s_ + (warm_ ? warm_->job_seconds() : 0.0);
  }

 private:
  mflush::ExperimentBackend& inner_;
  Tracer& tracer_;
  std::string batch_span_;
  int parent_;
  double job_s_ = 0.0;
  std::unique_ptr<TimedBackend> warm_;  ///< null when warm_span is empty
};

/// A spawned subprocess (the daemon) with stdout/stderr sent to a log
/// file. The destructor kills and reaps a child that is still running.
class Child {
 public:
  Child(const std::string& bin, const std::vector<std::string>& args,
        const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Peak resident set (VmHWM) in MiB while the child is alive.
  [[nodiscard]] double peak_rss_mb() const;
  /// Wait for exit; returns the exit code (128 + signal when killed).
  int wait();

 private:
  int pid_ = -1;
};

/// Peak RSS of this process and of its largest waited-for child, MiB.
[[nodiscard]] double self_peak_rss_mb();
[[nodiscard]] double children_peak_rss_mb();

}  // namespace perfbench
