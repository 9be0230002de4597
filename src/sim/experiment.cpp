#include "sim/experiment.h"

#include <chrono>

#include "common/env.h"
#include "sim/backend.h"
#include "sim/snapshot.h"

namespace mflush {

Cycle bench_cycles(Cycle fallback) {
  return env::u64_or("MFLUSH_BENCH_CYCLES", fallback);
}

Cycle warmup_cycles(Cycle fallback) {
  return env::u64_or("MFLUSH_WARMUP_CYCLES", fallback);
}

RunResult run_point(const Workload& workload, const PolicySpec& policy,
                    std::uint64_t seed, Cycle warmup, Cycle measure) {
  return run_point(SimConfig::paper_default(workload.num_cores(), seed),
                   workload, policy, warmup, measure);
}

RunResult run_point(const SimConfig& cfg, const Workload& workload,
                    const PolicySpec& policy, Cycle warmup, Cycle measure) {
  const auto t0 = std::chrono::steady_clock::now();
  CmpSimulator sim(cfg, workload, policy);
  sim.run(warmup);
  sim.reset_stats();
  sim.run(measure);
  RunResult r;
  r.workload = workload.name;
  r.policy = policy.label();
  r.metrics = sim.metrics();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.simulated_cycles = warmup + measure;
  return r;
}

RunResult run_point_from_snapshot(const std::vector<std::uint8_t>& snapshot,
                                  Cycle fork_advance, Cycle measure) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::unique_ptr<CmpSimulator> sim = snapshot::make(snapshot);
  sim->run(fork_advance);
  sim->reset_stats();
  sim->run(measure);
  RunResult r;
  r.workload = sim->workload().name;
  r.policy = sim->policy().label();
  r.metrics = sim->metrics();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.simulated_cycles = fork_advance + measure;
  return r;
}

std::vector<RunResult> run_sweep(const Workload& workload,
                                 const std::vector<PolicySpec>& policies,
                                 std::uint64_t seed, Cycle warmup,
                                 Cycle measure) {
  ExperimentSpec spec;
  spec.name = "sweep";
  spec.workloads = {workload};
  spec.policies = policies;
  spec.seeds = {seed};
  spec.warmup = warmup;
  spec.measure = measure;
  InProcessBackend backend;
  return run_experiment(spec, backend);
}

std::vector<std::vector<RunResult>> run_grid(
    const std::vector<Workload>& workloads,
    const std::vector<PolicySpec>& policies, std::uint64_t seed, Cycle warmup,
    Cycle measure) {
  ExperimentSpec spec;
  spec.name = "grid";
  spec.workloads = workloads;
  spec.policies = policies;
  spec.seeds = {seed};
  spec.warmup = warmup;
  spec.measure = measure;
  InProcessBackend backend;
  std::vector<RunResult> flat = run_experiment(spec, backend);

  std::vector<std::vector<RunResult>> rows;
  rows.reserve(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto begin =
        flat.begin() + static_cast<std::ptrdiff_t>(w * policies.size());
    rows.emplace_back(
        std::make_move_iterator(begin),
        std::make_move_iterator(begin +
                                static_cast<std::ptrdiff_t>(policies.size())));
  }
  return rows;
}

}  // namespace mflush
