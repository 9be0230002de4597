#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// Journal geometry pinned by campaign::kFormatVersion: 12-byte header
// (magic + version), then 33-byte records (u32 len, 21-byte payload,
// u64 checksum). The fuzz tests below lean on these numbers; a layout
// change must bump the version AND update them.
constexpr std::size_t kHeader = 12;
constexpr std::size_t kRecord = 33;

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

  [[nodiscard]] std::string journal() const {
    return (dir_ / "journal.wal").string();
  }
  [[nodiscard]] std::vector<std::uint8_t> journal_bytes() const {
    return fsio::read_file_bytes(journal(), "journal");
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

// ------------------------------------------------------- journal replay

TEST_F(CampaignTest, JournalRoundTripsThroughResume) {
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    store.record_dispatched(jobs);
    store.record_done(jobs[0], run_job(jobs[0]));
    store.record_failed(jobs[1], 2);
  }

  CampaignStore store = CampaignStore::resume(dir_.string());
  const campaign::Frontier& f = store.frontier();
  EXPECT_FALSE(f.torn);
  EXPECT_EQ(f.records, jobs.size() + 2);
  using campaign::JobState;
  EXPECT_EQ(f.count(JobState::kDone), 1u);
  EXPECT_EQ(f.count(JobState::kFailed), 1u);
  EXPECT_EQ(f.count(JobState::kDispatched), jobs.size() - 2);

  const auto it = f.jobs.find(campaign::job_key(jobs[1]));
  ASSERT_NE(it, f.jobs.end());
  EXPECT_EQ(it->second.state, JobState::kFailed);
  EXPECT_EQ(it->second.aux, 2u);
  EXPECT_EQ(it->second.job_id, jobs[1].id);

  EXPECT_EQ(store.spec().to_bytes(), spec.to_bytes());
  ASSERT_TRUE(store.cached(jobs[0]).has_value());
  EXPECT_FALSE(store.cached(jobs[1]).has_value());
}

TEST_F(CampaignTest, ReplayRecoversExactFrontierAtEveryTruncationOffset) {
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    store.record_dispatched(jobs);
    store.record_done(jobs[0], run_job(jobs[0]));
    store.record_failed(jobs[1], 1);
  }
  const std::vector<std::uint8_t> full = journal_bytes();
  ASSERT_EQ(full.size(), kHeader + (jobs.size() + 2) * kRecord)
      << "journal geometry changed — update kHeader/kRecord and bump "
         "campaign::kFormatVersion";

  // A SIGKILL can tear the log at *any* byte. Whatever the cut, replay
  // must recover exactly the longest prefix of whole records.
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::span<const std::uint8_t> prefix(full.data(), cut);
    const campaign::Frontier f = campaign::replay(prefix);
    if (cut < kHeader) {
      EXPECT_EQ(f.records, 0u);
      EXPECT_EQ(f.valid_bytes, 0u);
      EXPECT_EQ(f.torn, cut != 0);
      continue;
    }
    const std::size_t whole = (cut - kHeader) / kRecord;
    EXPECT_EQ(f.records, whole);
    EXPECT_EQ(f.valid_bytes, kHeader + whole * kRecord);
    EXPECT_EQ(f.torn, f.valid_bytes != cut);
  }
}

TEST_F(CampaignTest, ReplayStopsAtCorruptionAnywhereInTheBody) {
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    store.record_dispatched(jobs);
    store.record_done(jobs[0], run_job(jobs[0]));
  }
  const std::vector<std::uint8_t> full = journal_bytes();

  // Flip every body byte in turn: the checksum (or the length bound)
  // must stop replay at — or before — the record containing the flip,
  // never admit the damaged record, and never throw.
  for (std::size_t p = kHeader; p < full.size(); ++p) {
    SCOPED_TRACE("flipped byte " + std::to_string(p));
    std::vector<std::uint8_t> damaged = full;
    damaged[p] ^= 0xff;
    const campaign::Frontier f = campaign::replay(damaged);
    EXPECT_TRUE(f.torn);
    const std::size_t containing = kHeader + ((p - kHeader) / kRecord) * kRecord;
    EXPECT_LE(f.valid_bytes, containing);
  }

  // A damaged *header* is a different animal: that file is not a (usable)
  // journal at all, and replay must say so loudly.
  std::vector<std::uint8_t> bad_magic = full;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW((void)campaign::replay(bad_magic), std::runtime_error);
  std::vector<std::uint8_t> bad_version = full;
  bad_version[8] ^= 0xff;
  EXPECT_THROW((void)campaign::replay(bad_version), std::runtime_error);
}

TEST_F(CampaignTest, ResumeTruncatesTornTailAndKeepsAppending) {
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    store.record_dispatched(jobs);
    store.record_done(jobs[0], run_job(jobs[0]));
  }
  // Tear the last record mid-payload, as a crash during write() would.
  const std::vector<std::uint8_t> full = journal_bytes();
  fs::resize_file(journal(), full.size() - kRecord / 2);

  std::vector<std::string> events;
  CampaignStore::Options opts;
  opts.on_event = [&](const std::string& line) { events.push_back(line); };
  {
    CampaignStore store = CampaignStore::resume(dir_.string(), opts);
    EXPECT_TRUE(store.frontier().torn);
    EXPECT_EQ(store.frontier().records, jobs.size());  // done record lost
    store.record_failed(jobs[1], 1);
  }
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.front().find("torn"), std::string::npos)
      << events.front();

  // The torn tail was truncated before the append, so the journal is now
  // whole again: dispatched records + the new failed one, no tear.
  const campaign::Frontier f = campaign::replay(journal_bytes());
  EXPECT_FALSE(f.torn);
  EXPECT_EQ(f.records, jobs.size() + 1);
  // The done record died in the tear, but the cache entry survived it:
  // the job is still not re-executed on resume.
  CampaignStore store = CampaignStore::resume(dir_.string());
  EXPECT_TRUE(store.cached(jobs[0]).has_value());
}

TEST_F(CampaignTest, JournalOfThePreviousFormatVersionIsRefusedNotTruncated) {
  // Its records' checksums belong to the previous format, so replaying
  // past the header would read the first record as a torn tail and
  // resume would truncate every record away.
  const ExperimentSpec spec = small_spec();
  const std::vector<JobSpec> jobs = spec.expand();
  {
    CampaignStore store = CampaignStore::create(dir_.string(), spec);
    store.record_dispatched(jobs);
  }
  std::vector<std::uint8_t> old = journal_bytes();
  const std::uint32_t previous = campaign::kFormatVersion - 1;
  std::memcpy(old.data() + 8, &previous, sizeof(previous));
  fsio::write_file_atomic(journal(), old);

  try {
    (void)CampaignStore::resume(dir_.string());
    ADD_FAILURE() << "resume accepted a previous-version journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(journal_bytes(), old) << "the refused journal was modified";
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

  // Resume re-executes only the delta and lands bit-identical to the
  // uninterrupted serial run.
  CountingBackend counting;
  CampaignStore store = CampaignStore::resume(dir_.string());
  EXPECT_EQ(store.frontier().count(campaign::JobState::kDone), 2u);
  ResultSink sink;
  expect_identical_results(run_experiment_durable(store, counting, sink),
                           reference);
  EXPECT_EQ(counting.executed, spec.num_points() - 2);
}

TEST_F(CampaignTest, BackendFailureJournalsTheHolesAndResumes) {
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
    EXPECT_EQ(store.frontier().count(campaign::JobState::kDone), 1u);
    EXPECT_EQ(store.frontier().count(campaign::JobState::kFailed),
              spec.num_points() - 1);
  }

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

TEST_F(CampaignTest, NewSpecRotatesTheJournalButKeepsTheCache) {
  ExperimentSpec first = small_spec();
  first.policies = {PolicySpec::icount()};
  {
    CampaignStore store = CampaignStore::create(dir_.string(), first);
    SerialBackend serial;
    ResultSink sink;
    (void)run_experiment_durable(store, serial, sink);
  }

  // A different spec whose job set overlaps the first: the old journal is
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
  EXPECT_TRUE(fs::exists(dir_ / "journal.wal.1"));
  EXPECT_TRUE(fs::exists(dir_ / "spec.1.mfc"));
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
