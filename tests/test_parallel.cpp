#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/parallel.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

// ------------------------------------------------------------- pool basics

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> counts(kN);
  runner.for_each_index(kN, [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelRunner, SingleJobIsPlainSerialLoop) {
  ParallelRunner runner(1);
  EXPECT_EQ(runner.jobs(), 1u);
  std::vector<std::size_t> order;
  runner.for_each_index(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunner, ZeroTasksIsNoOp) {
  ParallelRunner runner(4);
  runner.for_each_index(0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner runner(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<int> sum{0};
    runner.for_each_index(10, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ParallelRunner, PropagatesTaskException) {
  ParallelRunner runner(4);
  EXPECT_THROW(runner.for_each_index(8,
                                     [&](std::size_t i) {
                                       if (i == 3)
                                         throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> ran{0};
  runner.for_each_index(4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelRunner, DefaultJobsHonoursEnv) {
  setenv("MFLUSH_JOBS", "3", 1);
  EXPECT_EQ(ParallelRunner::default_jobs(), 3u);
  // Malformed values are a hard error (common/env.h), not a silent
  // fallback: a typo must never quietly change the sweep width.
  setenv("MFLUSH_JOBS", "garbage", 1);
  EXPECT_THROW((void)ParallelRunner::default_jobs(), std::runtime_error);
  setenv("MFLUSH_JOBS", "0", 1);
  EXPECT_THROW((void)ParallelRunner::default_jobs(), std::runtime_error);
  setenv("MFLUSH_JOBS", "4x", 1);
  EXPECT_THROW((void)ParallelRunner::default_jobs(), std::runtime_error);
  // A value the unsigned cast would truncate is an error, not 0 threads.
  setenv("MFLUSH_JOBS", "4294967296", 1);
  EXPECT_THROW((void)ParallelRunner::default_jobs(), std::runtime_error);
  unsetenv("MFLUSH_JOBS");
  EXPECT_GE(ParallelRunner::default_jobs(), 1u);
}

// ------------------------------------------------- serial/parallel identity

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);
  const SimMetrics& ma = a.metrics;
  const SimMetrics& mb = b.metrics;
  EXPECT_EQ(ma.cycles, mb.cycles);
  EXPECT_EQ(ma.committed, mb.committed);
  EXPECT_EQ(ma.ipc, mb.ipc);  // exact: same integer inputs, same arithmetic
  EXPECT_EQ(ma.per_thread_ipc, mb.per_thread_ipc);
  EXPECT_EQ(ma.flush_events, mb.flush_events);
  EXPECT_EQ(ma.flushed_instructions, mb.flushed_instructions);
  EXPECT_EQ(ma.branches_resolved, mb.branches_resolved);
  EXPECT_EQ(ma.mispredicts, mb.mispredicts);
  EXPECT_EQ(ma.l2_hit_time_mean, mb.l2_hit_time_mean);
  EXPECT_EQ(ma.l2_hit_time_p50, mb.l2_hit_time_p50);
  EXPECT_EQ(ma.l2_hit_time_p90, mb.l2_hit_time_p90);
  EXPECT_EQ(ma.l2_hits_observed, mb.l2_hits_observed);
  EXPECT_EQ(ma.l2_misses_observed, mb.l2_misses_observed);
  EXPECT_EQ(ma.energy.committed_units, mb.energy.committed_units);
  EXPECT_EQ(ma.energy.flush_wasted_units, mb.energy.flush_wasted_units);
  EXPECT_EQ(ma.energy.branch_wasted_units, mb.energy.branch_wasted_units);
}

TEST(ParallelRunner, MatchesSerialSweep) {
  // 2-core workload x 3 policies x 2 seeds: the in-process backend on a
  // real pool must be bit-identical to the serial reference, job for job.
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("4W1")};  // 2 cores, 4 contexts
  spec.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                   PolicySpec::mflush()};
  spec.seeds = {1, 42};
  spec.warmup = 1'000;
  spec.measure = 3'000;
  const std::vector<JobSpec> jobs = spec.expand();

  std::vector<RunResult> serial;
  for (const JobSpec& j : jobs)
    serial.push_back(run_point(j.workload, j.policy, j.seed, j.warmup,
                               j.measure));

  ParallelRunner runner(4);  // force real pool execution even on small hosts
  InProcessBackend backend(runner);
  const std::vector<RunResult> parallel = backend.run_collect(jobs);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_bit_identical(serial[i], parallel[i]);
  }
}

/// A one-seed spec over `ws` x `ps` (500 warm-up cycles, `measure`).
ExperimentSpec grid_spec(const std::vector<Workload>& ws,
                         const std::vector<PolicySpec>& ps, Cycle measure) {
  ExperimentSpec spec;
  spec.workloads = ws;
  spec.policies = ps;
  spec.seeds = {1};
  spec.warmup = 500;
  spec.measure = measure;
  return spec;
}

TEST(ParallelRunner, RunSweepGoesThroughSharedPool) {
  // A one-workload sweep on the shared pool keeps the serial days' output
  // layout (policy order).
  const Workload w = *workloads::by_name("2W1");
  InProcessBackend backend;
  const auto rs = run_experiment(
      grid_spec({w}, {PolicySpec::icount(), PolicySpec::mflush()}, 1'500),
      backend);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].policy, "ICOUNT");
  EXPECT_EQ(rs[1].policy, "MFLUSH");
  expect_bit_identical(rs[0],
                       run_point(w, PolicySpec::icount(), 1, 500, 1'500));
}

TEST(RunGrid, LayoutMatchesWorkloadRowsPolicyColumns) {
  const std::vector<Workload> ws = {*workloads::by_name("2W1"),
                                    *workloads::by_name("2W2")};
  const std::vector<PolicySpec> ps = {PolicySpec::icount(),
                                      PolicySpec::flush_spec(30)};
  // One seed: the flat results are workload rows, policy columns.
  InProcessBackend backend;
  const auto flat = run_experiment(grid_spec(ws, ps, 1'000), backend);
  const auto at = [&](std::size_t w, std::size_t p) -> const RunResult& {
    return flat[w * ps.size() + p];
  };
  ASSERT_EQ(flat.size(), 2u * 2u);  // 2 workload rows x 2 policy columns
  EXPECT_EQ(at(0, 0).workload, "2W1");
  EXPECT_EQ(at(0, 1).policy, "FLUSH-S30");
  EXPECT_EQ(at(1, 0).workload, "2W2");
}

TEST(RunPoint, SelfReportsThroughput) {
  const RunResult r =
      run_point(*workloads::by_name("2W1"), PolicySpec::icount(), 1, 500,
                1'000);
  EXPECT_EQ(r.simulated_cycles, 1'500u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.sim_cycles_per_sec(), 0.0);
}

}  // namespace
}  // namespace mflush
