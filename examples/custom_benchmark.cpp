/// Define a custom benchmark profile (instead of the SPEC2000 catalog) and
/// run it through the full CMP simulator.
#include <iostream>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/report.h"
#include "trace/generator.h"

int main() {
  using namespace mflush;

  // A deliberately nasty pointer-chasing workload: 40 % of loads chase the
  // previous load's result through a 32 MB region — every miss serializes.
  BenchmarkProfile chaser;
  chaser.name = "chaser";
  chaser.f_load = 0.32;
  chaser.f_store = 0.06;
  chaser.f_branch = 0.10;
  chaser.strands = 2;
  chaser.p_chase = 0.40;
  chaser.hot_lines = 96;
  chaser.l2_lines = 6000;
  chaser.mem_lines = 1 << 19;
  chaser.p_l2 = 0.10;
  chaser.p_mem = 0.03;
  chaser.icache_lines = 80;

  // A well-behaved compute companion.
  BenchmarkProfile vector_kernel;
  vector_kernel.name = "vector-kernel";
  vector_kernel.f_load = 0.25;
  vector_kernel.f_store = 0.10;
  vector_kernel.f_branch = 0.06;
  vector_kernel.f_fp = 0.5;
  vector_kernel.strands = 6;
  vector_kernel.p_stream = 0.4;
  vector_kernel.stream_lines = 1 << 13;
  vector_kernel.p_l2 = 0.02;
  vector_kernel.p_mem = 0.001;
  vector_kernel.icache_lines = 48;

  std::cout << "Custom 2-context SMT core: 'chaser' + 'vector-kernel'\n\n";
  // Ad-hoc chips are experiment data too: a JobSpec can embed the raw
  // BenchmarkProfiles (one per hardware context), so custom workloads run
  // on any backend — including `mflushsim --worker` subprocesses, which
  // rebuild the chip from the serialized profiles in the job file.
  const std::vector<PolicySpec> policies = {
      PolicySpec::icount(), PolicySpec::flush_spec(30), PolicySpec::mflush()};
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    JobSpec j;
    j.id = static_cast<std::uint32_t>(i);
    j.workload.name = "chaser+vector-kernel";
    j.profiles = {chaser, vector_kernel};
    j.policy = policies[i];
    j.warmup = 20'000;
    j.measure = 60'000;
    jobs.push_back(std::move(j));
  }
  InProcessBackend backend;
  for (const RunResult& r : backend.run_collect(jobs)) {
    const SimMetrics& m = r.metrics;
    std::cout << r.policy << ": IPC " << m.ipc << " (chaser "
              << m.per_thread_ipc[0] << ", vector-kernel "
              << m.per_thread_ipc[1] << "), " << m.flush_events
              << " flushes\n";
  }
  return 0;
}
