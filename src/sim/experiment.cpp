#include "sim/experiment.h"

#include <chrono>

#include "common/env.h"
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

}  // namespace mflush
