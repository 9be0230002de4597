#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

/// Broad metric equality: every counter the sweeps report, including the
/// derived memory/energy figures.
void expect_same_metrics(const SimMetrics& a, const SimMetrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.per_thread_ipc, b.per_thread_ipc);
  EXPECT_EQ(a.flush_events, b.flush_events);
  EXPECT_EQ(a.flushed_instructions, b.flushed_instructions);
  EXPECT_EQ(a.branches_resolved, b.branches_resolved);
  EXPECT_EQ(a.mispredicts, b.mispredicts);
  EXPECT_EQ(a.l2_hit_time_mean, b.l2_hit_time_mean);
  EXPECT_EQ(a.l2_hit_time_p50, b.l2_hit_time_p50);
  EXPECT_EQ(a.l2_hit_time_p90, b.l2_hit_time_p90);
  EXPECT_EQ(a.l2_hits_observed, b.l2_hits_observed);
  EXPECT_EQ(a.l2_misses_observed, b.l2_misses_observed);
  EXPECT_EQ(a.energy.committed_units, b.energy.committed_units);
  EXPECT_EQ(a.energy.flush_wasted_units, b.energy.flush_wasted_units);
  EXPECT_EQ(a.energy.branch_wasted_units, b.energy.branch_wasted_units);
}

constexpr Cycle kWarm = 12'000;
constexpr Cycle kMeasure = 25'000;

// --------------------------------------------------- resume determinism

class SnapshotDeterminism : public ::testing::TestWithParam<const char*> {};

/// The hard invariant: save -> restore -> run must be bit-identical to the
/// uninterrupted run, for every policy family (each serializes different
/// state) on a multi-core chip.
TEST_P(SnapshotDeterminism, ResumeMatchesContinuous) {
  const Workload wl = *workloads::by_name("4W2");
  const PolicySpec policy = *PolicySpec::parse(GetParam());

  CmpSimulator continuous(wl, policy, /*seed=*/7);
  continuous.run(kWarm);
  const std::vector<std::uint8_t> bytes = snapshot::capture(continuous);
  continuous.reset_stats();
  continuous.run(kMeasure);

  // Restore into a freshly built chip and run the same interval.
  SimConfig cfg = SimConfig::paper_default(wl.num_cores());
  cfg.seed = 7;
  CmpSimulator resumed(cfg, wl, policy);
  snapshot::restore(resumed, bytes);
  EXPECT_EQ(resumed.now(), kWarm);
  resumed.reset_stats();
  resumed.run(kMeasure);

  expect_same_metrics(continuous.metrics(), resumed.metrics());
}

INSTANTIATE_TEST_SUITE_P(Policies, SnapshotDeterminism,
                         ::testing::Values("icount", "flush-s30", "flush-ns",
                                           "stall-s30", "mflush",
                                           "mflush-h4avg"));

/// The operand-wakeup state (waiter lists, pending-source counts, ready
/// lists) is derived, not serialized: restore rebuilds it from the queues.
/// Capture while uops wait on in-flight loads; the rebuilt ready lists
/// must equal the continuous run's, and the resumed run must match.
TEST(Snapshot, RestoreRebuildsWakeupState) {
  const Workload wl = *workloads::by_name("4W2");
  const PolicySpec policy = PolicySpec::mflush();
  CmpSimulator continuous(wl, policy, /*seed=*/7);
  continuous.run(kWarm);
  const std::vector<std::uint8_t> bytes = snapshot::capture(continuous);

  SimConfig cfg = SimConfig::paper_default(wl.num_cores());
  cfg.seed = 7;
  CmpSimulator resumed(cfg, wl, policy);
  snapshot::restore(resumed, bytes);

  std::size_t waiting = 0;
  std::size_t loads_in_flight = 0;
  for (CoreId c = 0; c < continuous.num_cores(); ++c) {
    const SmtCore& a = continuous.core(c);
    const SmtCore& b = resumed.core(c);
    EXPECT_EQ(a.ready_uops(a.iq_int()), b.ready_uops(b.iq_int()));
    EXPECT_EQ(a.ready_uops(a.iq_fp()), b.ready_uops(b.iq_fp()));
    EXPECT_EQ(a.ready_uops(a.iq_mem()), b.ready_uops(b.iq_mem()));
    for (const IssueQueue* q : {&a.iq_int(), &a.iq_fp(), &a.iq_mem()}) {
      std::size_t candidates = 0;
      for (const UopHandle h : q->entries()) {
        const MicroOp& u = a.pool()[h];
        if (!u.issued && !u.is_store()) ++candidates;
        if (u.is_load() && u.issued && !u.completed) ++loads_in_flight;
      }
      waiting += candidates - a.ready_uops(*q).size();
    }
  }
  EXPECT_GT(waiting, 0u) << "no uop was waiting on a source at capture";
  EXPECT_GT(loads_in_flight, 0u) << "no load was in flight at capture";

  continuous.reset_stats();
  continuous.run(kMeasure);
  resumed.reset_stats();
  resumed.run(kMeasure);
  expect_same_metrics(continuous.metrics(), resumed.metrics());
}

TEST(Snapshot, MakeReconstructsFromEmbeddedHeader) {
  const Workload wl = *workloads::by_name("2W4");
  CmpSimulator donor(wl, PolicySpec::mflush(), /*seed=*/3);
  donor.run(kWarm);
  const std::vector<std::uint8_t> bytes = snapshot::capture(donor);
  donor.reset_stats();
  donor.run(kMeasure);

  const std::unique_ptr<CmpSimulator> made = snapshot::make(bytes);
  EXPECT_EQ(made->workload().name, wl.name);
  EXPECT_EQ(made->policy(), PolicySpec::mflush());
  EXPECT_EQ(made->config().seed, 3u);
  made->reset_stats();
  made->run(kMeasure);
  expect_same_metrics(donor.metrics(), made->metrics());
}

TEST(Snapshot, ForksAreIndependentAndIdentical) {
  CmpSimulator donor(*workloads::by_name("2W3"), PolicySpec::flush_spec(30),
                     /*seed=*/1);
  donor.run(kWarm);
  const auto bytes = snapshot::capture(donor);

  const std::unique_ptr<CmpSimulator> fork_a = snapshot::make(bytes);
  const std::unique_ptr<CmpSimulator> fork_b = snapshot::make(bytes);
  // Perturb the donor after forking: forks must not care.
  donor.run(5'000);

  fork_a->reset_stats();
  fork_a->run(kMeasure);
  fork_b->reset_stats();
  fork_b->run(kMeasure);
  expect_same_metrics(fork_a->metrics(), fork_b->metrics());
}

TEST(Snapshot, ForkJobsMatchDirectForks) {
  CmpSimulator donor(*workloads::by_name("2W3"), PolicySpec::mflush(),
                     /*seed=*/1);
  donor.run(kWarm);
  const auto snap = std::make_shared<const std::vector<std::uint8_t>>(
      snapshot::capture(donor));

  std::vector<JobSpec> jobs(3);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].id = static_cast<std::uint32_t>(k);
    jobs[k].measure = 8'000;
    jobs[k].snapshot = snap;
    jobs[k].fork_advance = static_cast<Cycle>(k) * 2'000;
  }
  InProcessBackend backend;
  const std::vector<RunResult> swept = backend.run_collect(jobs);
  ASSERT_EQ(swept.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const RunResult direct = run_point_from_snapshot(
        *snap, jobs[k].fork_advance, jobs[k].measure);
    expect_same_metrics(direct.metrics, swept[k].metrics);
    EXPECT_EQ(swept[k].workload, "2W3");
    EXPECT_EQ(swept[k].policy, "MFLUSH");
  }
}

// ------------------------------------------------------- canonical bytes

/// Snapshot bytes are a function of the simulated state alone. A chip
/// rebuilt from bytes refills its hash maps (in-flight loads by token,
/// TLB pages) in another order than the live chip's insert/erase history
/// left them, and must still capture the same bytes — for every
/// policy family on both memory models.
TEST(Snapshot, RecaptureIsByteIdentical) {
  const Workload wl = *workloads::by_name("4W2");
  for (const char* name :
       {"icount", "flush-s30", "flush-ns", "stall-s30", "mflush"}) {
    for (const bool dram : {false, true}) {
      SCOPED_TRACE(std::string(name) + (dram ? " dram" : " fixed"));
      SimConfig cfg = SimConfig::paper_default(wl.num_cores(), /*seed=*/7);
      if (dram) {
        cfg.mem.memory_model = MemModelKind::BankedDram;
        cfg.mem.dram.far_base = Addr{1} << 40;
        cfg.mem.dram.far_bytes = std::uint64_t{1} << 40;
      }
      CmpSimulator chip(cfg, wl, *PolicySpec::parse(name));
      chip.run(6'000);
      const std::vector<std::uint8_t> bytes = snapshot::capture(chip);
      EXPECT_TRUE(snapshot::capture(*snapshot::make(bytes)) == bytes);
    }
  }
}

// ------------------------------------------------------- file round trip

TEST(Snapshot, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "mflush_test_chip.snap";
  CmpSimulator donor(*workloads::by_name("2W1"), PolicySpec::icount(),
                     /*seed=*/5);
  donor.run(6'000);
  snapshot::save_file(path, donor);
  donor.reset_stats();
  donor.run(10'000);

  const std::unique_ptr<CmpSimulator> loaded = snapshot::load_file(path);
  loaded->reset_stats();
  loaded->run(10'000);
  expect_same_metrics(donor.metrics(), loaded->metrics());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ rejection

TEST(Snapshot, RefusesProfileBuiltSimulators) {
  // Ad-hoc profiles are not reconstructible from workload codes; both
  // capture and restore must refuse rather than silently swap benchmarks.
  std::vector<BenchmarkProfile> profiles(2);
  profiles[0].name = "adhoc_a";
  profiles[1].name = "adhoc_b";
  CmpSimulator sim(profiles, PolicySpec::icount(), /*seed=*/1);
  sim.run(1'000);
  EXPECT_THROW((void)snapshot::capture(sim), std::runtime_error);

  CmpSimulator donor(*workloads::by_name("2W1"), PolicySpec::icount(),
                     /*seed=*/1);
  donor.run(1'000);
  const auto bytes = snapshot::capture(donor);
  EXPECT_THROW(snapshot::restore(sim, bytes), std::runtime_error);
}

TEST(Snapshot, RejectsCorruptionTruncationAndMismatch) {
  const Workload wl = *workloads::by_name("2W1");
  CmpSimulator donor(wl, PolicySpec::icount(), /*seed=*/1);
  donor.run(4'000);
  std::vector<std::uint8_t> bytes = snapshot::capture(donor);

  // Bit flip anywhere fails the checksum.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW((void)snapshot::make(flipped), std::runtime_error);

  // Truncation fails before any state is touched.
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + bytes.size() / 3);
  EXPECT_THROW((void)snapshot::make(cut), std::runtime_error);

  // Restoring into a different experiment is refused.
  CmpSimulator other_policy(wl, PolicySpec::mflush(), /*seed=*/1);
  EXPECT_THROW(snapshot::restore(other_policy, bytes), std::runtime_error);
  CmpSimulator other_seed(wl, PolicySpec::icount(), /*seed=*/2);
  EXPECT_THROW(snapshot::restore(other_seed, bytes), std::runtime_error);
  CmpSimulator other_workload(*workloads::by_name("2W2"),
                              PolicySpec::icount(), /*seed=*/1);
  EXPECT_THROW(snapshot::restore(other_workload, bytes), std::runtime_error);
}

}  // namespace
}  // namespace mflush
