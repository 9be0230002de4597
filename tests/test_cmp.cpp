#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/experiment.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

Workload wl(const char* name) { return *workloads::by_name(name); }

TEST(Cmp, ConstructsFromWorkload) {
  CmpSimulator sim(wl("2W1"), PolicySpec::icount());
  EXPECT_EQ(sim.num_cores(), 1u);
  CmpSimulator sim4(wl("8W1"), PolicySpec::icount());
  EXPECT_EQ(sim4.num_cores(), 4u);
}

TEST(Cmp, RejectsMismatchedChip) {
  SimConfig cfg = SimConfig::paper_default(2);  // 4 contexts
  EXPECT_THROW(CmpSimulator(cfg, wl("2W1"), PolicySpec::icount()),
               std::invalid_argument);
}

TEST(Cmp, RejectsUnknownBenchmarkCode) {
  Workload bad;
  bad.name = "bad";
  bad.codes = {'a', '!'};
  EXPECT_THROW(CmpSimulator(bad, PolicySpec::icount()),
               std::invalid_argument);
}

TEST(Cmp, RejectsInvalidConfig) {
  SimConfig cfg = SimConfig::paper_default(1);
  cfg.core.fetch_threads = 9;
  EXPECT_THROW(CmpSimulator(cfg, wl("2W1"), PolicySpec::icount()),
               std::invalid_argument);
}

TEST(Cmp, RunAdvancesClockAndCommits) {
  CmpSimulator sim(wl("2W1"), PolicySpec::icount());
  sim.run(5000);
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_GT(sim.metrics().committed, 0u);
}

TEST(Cmp, MetricsAreInternallyConsistent) {
  CmpSimulator sim(wl("4W2"), PolicySpec::flush_spec(30));
  sim.run(8000);
  const SimMetrics m = sim.metrics();
  EXPECT_EQ(m.cycles, 8000u);
  EXPECT_NEAR(m.ipc,
              static_cast<double>(m.committed) / static_cast<double>(m.cycles),
              1e-9);
  ASSERT_EQ(m.per_thread_ipc.size(), 4u);
  double sum = 0.0;
  for (const double v : m.per_thread_ipc) sum += v;
  EXPECT_NEAR(sum, m.ipc, 1e-6);
}

TEST(Cmp, DeterministicForSameSeed) {
  CmpSimulator a(wl("2W2"), PolicySpec::mflush(), 7);
  CmpSimulator b(wl("2W2"), PolicySpec::mflush(), 7);
  a.run(6000);
  b.run(6000);
  EXPECT_EQ(a.metrics().committed, b.metrics().committed);
  EXPECT_EQ(a.metrics().flush_events, b.metrics().flush_events);
  EXPECT_EQ(a.metrics().mispredicts, b.metrics().mispredicts);
}

TEST(Cmp, SeedsProduceDifferentRuns) {
  CmpSimulator a(wl("2W2"), PolicySpec::icount(), 1);
  CmpSimulator b(wl("2W2"), PolicySpec::icount(), 2);
  a.run(6000);
  b.run(6000);
  EXPECT_NE(a.metrics().committed, b.metrics().committed);
}

TEST(Cmp, ResetStatsStartsMeasuredInterval) {
  CmpSimulator sim(wl("2W1"), PolicySpec::icount());
  sim.run(3000);
  sim.reset_stats();
  EXPECT_EQ(sim.metrics().committed, 0u);
  EXPECT_EQ(sim.metrics().cycles, 0u);
  sim.run(1000);
  EXPECT_GT(sim.metrics().committed, 0u);
  EXPECT_EQ(sim.metrics().cycles, 1000u);
}

// The policy counters cover the measured interval, like flush_events:
// every policy family reads zero in all of them right after reset_stats.
TEST(Cmp, ResetStatsZeroesPolicyCounters) {
  for (const char* name : {"icount", "flush-s30", "flush-ns", "stall-s30",
                           "mflush", "mflush-np"}) {
    SCOPED_TRACE(name);
    CmpSimulator sim(*workloads::by_name("4W2"), *PolicySpec::parse(name));
    sim.run(8'000);
    const SimMetrics before = sim.metrics();
    if (std::string(name) != "icount") {
      EXPECT_GT(before.policy_flushes_on_miss + before.policy_flushes_on_hit +
                    before.policy_flushes_on_l1 + before.policy_stall_events,
                0u)
          << "the warm-up took no response action to reset";
    }
    sim.reset_stats();
    const SimMetrics m = sim.metrics();
    EXPECT_EQ(m.policy_flushes_on_miss, 0u);
    EXPECT_EQ(m.policy_flushes_on_hit, 0u);
    EXPECT_EQ(m.policy_flushes_on_l1, 0u);
    EXPECT_EQ(m.policy_stall_events, 0u);
    EXPECT_EQ(m.policy_gate_cycles, 0u);
  }
}

// Fork groups chain their windows (run_fork_group) on one invariant:
// reset_stats zeroes counters only, and nothing in the simulation reads a
// counter back. So a chip reset mid-run ends in the same state as one run
// straight through, once both are reset.
TEST(Cmp, ResetStatsLeavesTheTrajectoryAlone) {
  const Workload w = wl("4W2");
  for (const bool dram : {false, true}) {
    SimConfig cfg = SimConfig::paper_default(w.num_cores(), 5);
    if (dram) {
      cfg.mem.memory_model = MemModelKind::BankedDram;
      cfg.mem.dram.far_base = Addr{1} << 40;
      cfg.mem.dram.far_bytes = std::uint64_t{1} << 40;
    }
    for (const char* name :
         {"icount", "flush-s30", "stall-s30", "mflush", "flush-ns"}) {
      SCOPED_TRACE(std::string(name) + (dram ? " dram" : " fixed"));
      const PolicySpec policy = *PolicySpec::parse(name);
      CmpSimulator a(cfg, w, policy);
      CmpSimulator b(cfg, w, policy);
      a.run(5'000);
      b.run(3'000);
      b.reset_stats();
      b.run(2'000);
      a.reset_stats();
      b.reset_stats();
      EXPECT_TRUE(snapshot::capture(a) == snapshot::capture(b));
    }
  }
}

// Fork groups measure each window as the difference of the tallies at
// its ends (run_fork_group) instead of resetting at its start, so every
// counter metrics() reads must be a plain accumulator. The interval starts
// with loads in flight and, under a responding policy, a thread flushed,
// stalled or gated, so it takes in events begun before it.
TEST(Cmp, TallyDifferenceMatchesReset) {
  const Workload w = wl("4W2");
  for (const bool dram : {false, true}) {
    SimConfig cfg = SimConfig::paper_default(w.num_cores(), 5);
    if (dram) {
      cfg.mem.memory_model = MemModelKind::BankedDram;
      cfg.mem.dram.far_base = Addr{1} << 40;
      cfg.mem.dram.far_bytes = std::uint64_t{1} << 40;
    }
    for (const char* name :
         {"icount", "flush-s30", "stall-s30", "mflush", "flush-ns"}) {
      SCOPED_TRACE(std::string(name) + (dram ? " dram" : " fixed"));
      const PolicySpec policy = *PolicySpec::parse(name);
      const bool responds = std::string(name) != "icount";
      const auto mid_flight = [&](const CmpSimulator& s) {
        if (s.memory().memory_model().outstanding() == 0) return false;
        if (!responds) return true;
        for (CoreId c = 0; c < s.num_cores(); ++c) {
          for (ThreadId t = 0; t < s.core(c).num_threads(); ++t) {
            if (s.core(c).fetch_blocked(t) || s.core(c).fetch_gated(t))
              return true;
          }
        }
        return false;
      };
      CmpSimulator a(cfg, w, policy);
      CmpSimulator b(cfg, w, policy);
      // Long enough for every DRAM counter, row hits included, to be
      // non-zero before the interval.
      a.run(8'000);
      b.run(8'000);
      for (int i = 0; i < 2'000 && !mid_flight(a); ++i) {
        a.run(1);
        b.run(1);
      }
      ASSERT_TRUE(mid_flight(a));
      a.reset_stats();
      a.run(2'000);
      const CmpSimulator::Tally from = b.tally();
      b.run(2'000);
      const SimMetrics m = a.metrics();
      EXPECT_TRUE(b.metrics_between(from, b.tally()) == m);
      EXPECT_EQ(m.cycles, 2'000u);
      if (responds) {
        EXPECT_GT(m.flush_events + m.policy_stall_events +
                      m.policy_gate_cycles,
                  0u);
      }
    }
  }
}

TEST(Cmp, PrewarmPopulatesL2) {
  SimConfig cfg = SimConfig::paper_default(1);
  cfg.prewarm_l2 = true;
  CmpSimulator warm(cfg, wl("2W1"), PolicySpec::icount());
  warm.run(8000);
  SimConfig cold_cfg = cfg;
  cold_cfg.prewarm_l2 = false;
  CmpSimulator cold(cold_cfg, wl("2W1"), PolicySpec::icount());
  cold.run(8000);
  // The warm chip sees far more L2 hits early on.
  EXPECT_GT(warm.memory().l2().read_hits(), cold.memory().l2().read_hits());
}

TEST(Cmp, IcountNeverFlushes) {
  CmpSimulator sim(wl("4W3"), PolicySpec::icount());
  sim.run(8000);
  EXPECT_EQ(sim.metrics().flush_events, 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().energy.flush_wasted_units, 0.0);
}

TEST(Cmp, FlushPolicyFlushesOnMemoryWorkload) {
  CmpSimulator sim(wl("2W3"), PolicySpec::flush_spec(30));  // mcf+gzip
  sim.run(12000);
  EXPECT_GT(sim.metrics().flush_events, 0u);
  EXPECT_GT(sim.metrics().energy.flush_wasted_units, 0.0);
}

TEST(Cmp, AccessorsExposeStructure) {
  CmpSimulator sim(wl("4W1"), PolicySpec::mflush(), 3);
  EXPECT_EQ(sim.workload().name, "4W1");
  EXPECT_EQ(sim.policy().label(), "MFLUSH");
  EXPECT_EQ(sim.config().seed, 3u);
  EXPECT_EQ(sim.core(0).num_threads(), 2u);
  EXPECT_STREQ(sim.core(1).policy().name(), "MFLUSH");
}

// ------------------------------------------------------------- experiment

TEST(Experiment, RunPointWarmsThenMeasures) {
  const RunResult r =
      run_point(wl("2W1"), PolicySpec::icount(), 1, 2000, 4000);
  EXPECT_EQ(r.workload, "2W1");
  EXPECT_EQ(r.policy, "ICOUNT");
  EXPECT_EQ(r.metrics.cycles, 4000u);
  EXPECT_GT(r.metrics.ipc, 0.0);
}

TEST(Experiment, SweepCoversAllPolicies) {
  ExperimentSpec spec;
  spec.workloads = {wl("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.seeds = {1};
  spec.warmup = 1000;
  spec.measure = 2000;
  InProcessBackend backend;
  const auto rs = run_experiment(spec, backend);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].policy, "ICOUNT");
  EXPECT_EQ(rs[1].policy, "MFLUSH");
}

TEST(Experiment, EnvOverridesCycles) {
  setenv("MFLUSH_BENCH_CYCLES", "12345", 1);
  EXPECT_EQ(bench_cycles(999), 12345u);
  // Malformed values are a hard error (common/env.h), not a silent
  // fallback that would shorten a campaign unnoticed.
  setenv("MFLUSH_BENCH_CYCLES", "garbage", 1);
  EXPECT_THROW((void)bench_cycles(999), std::runtime_error);
  setenv("MFLUSH_BENCH_CYCLES", "0", 1);
  EXPECT_THROW((void)bench_cycles(999), std::runtime_error);
  setenv("MFLUSH_BENCH_CYCLES", "123tail", 1);
  EXPECT_THROW((void)bench_cycles(999), std::runtime_error);
  unsetenv("MFLUSH_BENCH_CYCLES");
  EXPECT_EQ(bench_cycles(999), 999u);

  setenv("MFLUSH_WARMUP_CYCLES", "77", 1);
  EXPECT_EQ(warmup_cycles(5), 77u);
  setenv("MFLUSH_WARMUP_CYCLES", "", 1);
  EXPECT_THROW((void)warmup_cycles(5), std::runtime_error);
  unsetenv("MFLUSH_WARMUP_CYCLES");
}

}  // namespace
}  // namespace mflush
