#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fsio.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "campaign-test";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 200;
  spec.measure = 400;
  return spec;
}

void expect_identical_results(const std::vector<RunResult>& a,
                              const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // Full SimMetrics equality — the campaign bit-identity contract.
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

/// Serial execution that counts how many jobs actually simulate — the
/// probe for "cache hits execute nothing".
class CountingBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::string name() const override { return "counting"; }
  void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override {
    executed += jobs.size();
    inner.run(jobs, sink);
  }

  SerialBackend inner;
  std::size_t executed = 0;
};

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("campaign-") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Result entries published to the campaign's private cache.
  [[nodiscard]] std::size_t cache_entries() const {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_ / "cache"))
      if (e.path().extension() == ".mfcr") ++n;
    return n;
  }

  /// A campaign's whole durable state: the spec and the result cache.
  void expect_only_spec_and_cache() const {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir_))
      names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"cache", "spec.mfc"}));
  }

  fs::path dir_;
};

// ------------------------------------------------------------------- keys

TEST_F(CampaignTest, JobKeyIgnoresIdAndTracksContent) {
  const std::vector<JobSpec> jobs = small_spec().expand();
  ASSERT_GE(jobs.size(), 2u);

  JobSpec copy = jobs[0];
  copy.id = 999;
  EXPECT_EQ(campaign::job_key(jobs[0]), campaign::job_key(copy))
      << "the result-slot id must not leak into the content key";

  EXPECT_NE(campaign::job_key(jobs[0]), campaign::job_key(jobs[1]));
  copy = jobs[0];
  copy.seed = jobs[0].seed + 1;
  EXPECT_NE(campaign::job_key(jobs[0]), campaign::job_key(copy));
  copy = jobs[0];
  copy.measure += 1;
  EXPECT_NE(campaign::job_key(jobs[0]), campaign::job_key(copy));

  const std::string hex = campaign::key_hex(campaign::job_key(jobs[0]));
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(campaign::key_hex(0x0123456789abcdefull), "0123456789abcdef");
}

// ------------------------------------------------------ durable execution

TEST_F(CampaignTest, ResumedCampaignIsBitIdenticalAndFullyCached) {
  const ExperimentSpec spec = small_spec();
  SerialBackend serial;
  const std::vector<RunResult> reference = run_experiment(spec, serial);

  CountingBackend first;
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    ResultSink sink;
    expect_identical_results(run_experiment_durable(store, first, sink),
                             reference);
  }
  EXPECT_EQ(first.executed, spec.num_points());
  EXPECT_EQ(cache_entries(), spec.num_points());
  expect_only_spec_and_cache();

  // Re-submitting the identical spec: 100% cache hits, zero simulated.
  CountingBackend second;
  CampaignStore store = CampaignStore::resume(dir_.string());
  ResultSink sink;
  expect_identical_results(run_experiment_durable(store, second, sink),
                           reference);
  EXPECT_EQ(second.executed, 0u);
}

TEST_F(CampaignTest, KilledMidCampaignResumesToTheUninterruptedResult) {
  const ExperimentSpec spec = small_spec();
  SerialBackend serial;
  const std::vector<RunResult> reference = run_experiment(spec, serial);

  // The child runs the campaign with the crash hook armed: SIGKILL the
  // instant the 2nd done record becomes durable — no destructors, no
  // flushes, a torn-anywhere crash by construction.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("MFLUSH_CAMPAIGN_KILL_AFTER", "2", 1);
    try {
      CampaignStore store = CampaignStore::create(dir_.string(), spec);
      SerialBackend child_serial;
      ResultSink sink;
      (void)run_experiment_durable(store, child_serial, sink);
    } catch (...) {
    }
    ::_exit(42);  // reached only if the kill hook failed to fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited instead of dying mid-campaign (status " << status
      << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The two results published before the kill are on disk; resume
  // re-executes only the delta and lands bit-identical to the
  // uninterrupted serial run.
  EXPECT_EQ(cache_entries(), 2u);
  CountingBackend counting;
  CampaignStore store = CampaignStore::resume(dir_.string());
  ResultSink sink;
  expect_identical_results(run_experiment_durable(store, counting, sink),
                           reference);
  EXPECT_EQ(counting.executed, spec.num_points() - 2);
  EXPECT_EQ(cache_entries(), spec.num_points());
  expect_only_spec_and_cache();
}

TEST_F(CampaignTest, BackendFailureResumesOnlyTheMissingJobs) {
  const ExperimentSpec spec = small_spec();
  SerialBackend serial;
  const std::vector<RunResult> reference = run_experiment(spec, serial);

  /// Completes the first job of its first batch, then dies — the shape of
  /// a sweep losing its worker pool mid-run.
  class FlakyBackend final : public ExperimentBackend {
   public:
    [[nodiscard]] std::string name() const override { return "flaky"; }
    void run(const std::vector<JobSpec>& jobs, ResultSink& sink) override {
      if (!failed_) {
        failed_ = true;
        sink.push(jobs.front(), run_job(jobs.front()));
        throw std::runtime_error("worker pool lost");
      }
      SerialBackend().run(jobs, sink);
    }

   private:
    bool failed_ = false;
  };

  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    FlakyBackend flaky;
    ResultSink sink;
    EXPECT_THROW((void)run_experiment_durable(store, flaky, sink),
                 std::runtime_error);
  }
  // The one result that landed before the failure is durable; the jobs
  // the backend gave up on simply have no entry.
  EXPECT_EQ(cache_entries(), 1u);

  CountingBackend counting;
  CampaignStore store = CampaignStore::resume(dir_.string());
  ResultSink sink;
  expect_identical_results(run_experiment_durable(store, counting, sink),
                           reference);
  EXPECT_EQ(counting.executed, spec.num_points() - 1);
}

TEST_F(CampaignTest, CorruptCacheEntryReadsAsAMissAndReExecutes) {
  const ExperimentSpec spec = small_spec();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    SerialBackend serial;
    ResultSink sink;
    (void)run_experiment_durable(store, serial, sink);
  }
  // Vandalize one cache entry; the campaign must heal it, not trust it.
  const fs::path cache = dir_ / "cache";
  auto it = fs::directory_iterator(cache);
  ASSERT_NE(it, fs::directory_iterator());
  {
    std::ofstream out(it->path(), std::ios::binary | std::ios::trunc);
    out << "not a result archive";
  }

  {
    CountingBackend counting;
    CampaignStore store = CampaignStore::resume(dir_.string());
    ResultSink sink;
    const std::vector<RunResult> results =
        run_experiment_durable(store, counting, sink);
    EXPECT_EQ(counting.executed, 1u);
    SerialBackend serial;
    expect_identical_results(results, run_experiment(spec, serial));
  }
  // The corrupt entry was deleted on read, so the re-execution's
  // put-if-absent republished it: a third run is served entirely from cache.
  CountingBackend counting;
  CampaignStore store = CampaignStore::resume(dir_.string());
  ResultSink sink;
  (void)run_experiment_durable(store, counting, sink);
  EXPECT_EQ(counting.executed, 0u);
}

// ------------------------------------------------- generations & guards

TEST_F(CampaignTest, FreshCreateOnSameSpecDemandsResume) {
  const ExperimentSpec spec = small_spec();
  { (void)CampaignStore::create(dir_.string(), spec); }
  try {
    (void)CampaignStore::create(dir_.string(), spec);
    FAIL() << "expected the same-spec restart to be refused";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
}

TEST_F(CampaignTest, ResumeWithoutACampaignThrows) {
  EXPECT_THROW((void)CampaignStore::resume(dir_.string()),
               std::runtime_error);
}

TEST_F(CampaignTest, ResumeNeedsOnlyTheSpec) {
  // A crash right after create archived the spec leaves nothing else.
  const ExperimentSpec spec = small_spec();
  fs::create_directories(dir_);
  fsio::write_file_atomic((dir_ / "spec.mfc").string(), spec.to_bytes());

  SerialBackend serial;
  const std::vector<RunResult> reference = run_experiment(spec, serial);
  {
    CountingBackend counting;
    CampaignStore store = CampaignStore::resume(dir_.string());
    ResultSink sink;
    expect_identical_results(run_experiment_durable(store, counting, sink),
                             reference);
    EXPECT_EQ(counting.executed, spec.num_points());
  }
  expect_only_spec_and_cache();

  // A journal.wal left by an older build is ignored.
  fsio::write_file_atomic((dir_ / "journal.wal").string(),
                          std::vector<std::uint8_t>{0xde, 0xad});
  CountingBackend counting;
  CampaignStore store = CampaignStore::resume(dir_.string());
  ResultSink sink;
  expect_identical_results(run_experiment_durable(store, counting, sink),
                           reference);
  EXPECT_EQ(counting.executed, 0u);
}

TEST_F(CampaignTest, RecordDoneIsSafeFromConcurrentThreads) {
  // The crash hook counts every durable result, so with it armed (far
  // above the calls made here) concurrent record_done calls share the
  // counter.
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  std::vector<RunResult> results;
  for (const JobSpec& job : jobs) results.push_back(run_job(job));

  ::setenv("MFLUSH_CAMPAIGN_KILL_AFTER", "1000000", 1);
  CampaignStore store = CampaignStore::create(dir_.string(), spec);
  ::unsetenv("MFLUSH_CAMPAIGN_KILL_AFTER");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        for (std::size_t i = 0; i < jobs.size(); ++i)
          store.record_done(jobs[i], results[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache_entries(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::optional<RunResult> got = store.cached(jobs[i]);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->metrics == results[i].metrics);
  }
}

TEST_F(CampaignTest, NewSpecRotatesTheSpecButKeepsTheCache) {
  ExperimentSpec first = small_spec();
  first.policies = {PolicySpec::icount()};
  {
    CampaignStore store = CampaignStore::create(dir_.string(), first);
    SerialBackend serial;
    ResultSink sink;
    (void)run_experiment_durable(store, serial, sink);
  }

  // A different spec whose job set overlaps the first: the old spec is
  // rotated aside and only the genuinely new jobs simulate.
  ExperimentSpec second = small_spec();
  second.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  CountingBackend counting;
  {
    CampaignStore store = CampaignStore::create(dir_.string(), second);
    ResultSink sink;
    const std::vector<RunResult> results =
        run_experiment_durable(store, counting, sink);
    SerialBackend serial;
    expect_identical_results(results, run_experiment(second, serial));
  }
  EXPECT_EQ(counting.executed,
            second.num_points() - first.num_points())
      << "the overlap with the previous spec should have come from cache";
  EXPECT_EQ(fsio::read_file_bytes((dir_ / "spec.1.mfc").string(), "spec"),
            first.to_bytes());
  EXPECT_EQ(fsio::read_file_bytes((dir_ / "spec.mfc").string(), "spec"),
            second.to_bytes());
}

TEST_F(CampaignTest, TempSweepSparesLiveWritersAndRemovesOrphans) {
  // A shared cache (mflushd) holds other writers' entries in flight: the
  // create/resume sweep may only delete temps whose writer is gone.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // `child` is now dead

  const fs::path cache = dir_ / "shared-cache";
  fs::create_directories(cache);
  const auto touch = [&](const std::string& name) {
    std::ofstream(cache / name) << "partial";
    return cache / name;
  };
  const fs::path live =
      touch("0123456789abcdef.mfcr.tmp." + std::to_string(::getpid()) + ".7");
  const fs::path orphan =
      touch("fedcba9876543210.mfcr.tmp." + std::to_string(child) + ".3");
  const fs::path foreign = touch("notes.tmp.txt");

  CampaignStore::Options opts;
  opts.cache_dir = cache.string();
  { (void)CampaignStore::create(dir_.string(), small_spec(), opts); }
  EXPECT_TRUE(fs::exists(live)) << "a live writer's temp was swept";
  EXPECT_FALSE(fs::exists(orphan)) << "a dead writer's temp survived";
  EXPECT_TRUE(fs::exists(foreign)) << "a non-temp file was swept";

  // resume sweeps by the same rule.
  const fs::path orphan2 =
      touch("1111222233334444.mfcr.tmp." + std::to_string(child) + ".9");
  { (void)CampaignStore::resume(dir_.string(), opts); }
  EXPECT_TRUE(fs::exists(live));
  EXPECT_FALSE(fs::exists(orphan2));

  EXPECT_FALSE(fsio::is_orphaned_temp(live.string()));
  EXPECT_FALSE(fsio::is_orphaned_temp(foreign.string()));
  EXPECT_FALSE(fsio::is_orphaned_temp((cache / "x.tmp.12ab.3").string()));
}

}  // namespace
}  // namespace mflush
