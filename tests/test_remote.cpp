#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/remote.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ host parsing

TEST(RemoteHosts, ParsesNameAndKeys) {
  const remote::HostSpec bare = remote::parse_host("local");
  EXPECT_EQ(bare.name, "local");
  EXPECT_EQ(bare.slots, 1u);
  EXPECT_EQ(bare.fail_batches, 0u);
  EXPECT_TRUE(bare.is_local());

  const remote::HostSpec full =
      remote::parse_host("user@node7 slots=4 fail=2 dir=/scratch/mflush");
  EXPECT_EQ(full.name, "user@node7");
  EXPECT_EQ(full.slots, 4u);
  EXPECT_EQ(full.fail_batches, 2u);
  EXPECT_EQ(full.remote_dir, "/scratch/mflush");
  EXPECT_FALSE(full.is_local());
}

TEST(RemoteHosts, RejectsMalformedEntries) {
  // A typo must never silently shrink or misconfigure the pool.
  EXPECT_THROW((void)remote::parse_host("host slots=0"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slots=abc"),
               std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slotz=2"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host slots"), std::runtime_error);
  EXPECT_THROW((void)remote::parse_host("host dir="), std::runtime_error);
  EXPECT_THROW((void)remote::parse_hosts("ok\nbad fail=-1"),
               std::runtime_error);
  // Overflow must error, not wrap modulo 2^32 into a tiny slot count.
  EXPECT_THROW((void)remote::parse_host("host slots=4294967297"),
               std::runtime_error);
}

TEST(RemoteHosts, ParsesTextWithCommentsAndSeparators) {
  // File form (newlines + comments) and env form (commas) share a grammar.
  const auto from_file = remote::parse_hosts(
      "# the pool\n"
      "local slots=2\n"
      "\n"
      "nodeA slots=4   # beefy box\n"
      "nodeB\n");
  ASSERT_EQ(from_file.size(), 3u);
  EXPECT_EQ(from_file[0].name, "local");
  EXPECT_EQ(from_file[0].slots, 2u);
  EXPECT_EQ(from_file[1].name, "nodeA");
  EXPECT_EQ(from_file[1].slots, 4u);
  EXPECT_EQ(from_file[2].name, "nodeB");
  EXPECT_EQ(from_file[2].index, 2u);

  const auto from_env =
      remote::parse_hosts("local slots=2, nodeA slots=4; nodeB");
  ASSERT_EQ(from_env.size(), 3u);
  EXPECT_EQ(from_env[1].name, "nodeA");
  EXPECT_EQ(from_env[1].slots, 4u);
}

TEST(RemoteHosts, ReadsHostsFile) {
  const std::string path = ::testing::TempDir() + "hosts.txt";
  {
    std::ofstream out(path);
    out << "local slots=3\nlocal slots=1 fail=5\n";
  }
  const auto hosts = remote::read_hosts_file(path);
  fs::remove(path);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].slots, 3u);
  EXPECT_EQ(hosts[1].fail_batches, 5u);
  EXPECT_EQ(hosts[1].label(), "local#1");

  EXPECT_THROW((void)remote::read_hosts_file(path + ".does-not-exist"),
               std::runtime_error);

  // An explicitly named pool that parses empty (every entry commented
  // out) must error, never silently degrade to a loopback run.
  const std::string empty_path = ::testing::TempDir() + "hosts-empty.txt";
  {
    std::ofstream out(empty_path);
    out << "# node1 slots=4\n# node2 slots=4\n";
  }
  EXPECT_THROW((void)remote::read_hosts_file(empty_path),
               std::runtime_error);
  fs::remove(empty_path);
}

TEST(RemoteHosts, EnvPoolSetButEmptyOrCommentedIsAnError) {
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "# commented out", 1), 0);
  EXPECT_THROW((void)remote::hosts_from_env(), std::runtime_error);
  // A '#' mid-string would silently swallow every later comma-separated
  // entry (comments run to end of line, and an env var is one line).
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "local slots=2 # fast, node7", 1), 0);
  EXPECT_THROW((void)remote::hosts_from_env(), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_HOSTS", "local slots=2", 1), 0);
  EXPECT_EQ(remote::hosts_from_env().size(), 1u);
  ASSERT_EQ(unsetenv("MFLUSH_HOSTS"), 0);
  EXPECT_TRUE(remote::hosts_from_env().empty());
}

TEST(SshTransportTimeout, MalformedEnvIsAHardErrorAndValidOnesResolve) {
  // env.h policy: a typo'd MFLUSH_SSH_TIMEOUT must fail construction
  // loudly, never silently fall back to the default deadline.
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "soon", 1), 0);
  EXPECT_THROW(remote::SshTransport("mflushsim"), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "0", 1), 0);
  EXPECT_THROW(remote::SshTransport("mflushsim"), std::runtime_error);
  ASSERT_EQ(setenv("MFLUSH_SSH_TIMEOUT", "90", 1), 0);
  EXPECT_EQ(remote::SshTransport("mflushsim").name(), "ssh");
  ASSERT_EQ(unsetenv("MFLUSH_SSH_TIMEOUT"), 0);
  // Unset env: the built-in default; an explicit Options deadline wins.
  EXPECT_EQ(remote::SshTransport("mflushsim").name(), "ssh");
  EXPECT_EQ(remote::SshTransport("mflushsim", 5).name(), "ssh");
}

// ---------------------------------------------------------------- batching

/// batch_ranges over `n` FullRun jobs (no parent groups to respect).
std::vector<std::pair<std::size_t, std::size_t>> plain_ranges(
    std::size_t n, std::size_t batch_jobs, std::size_t slots) {
  return remote::batch_ranges(std::vector<JobSpec>(n), batch_jobs, slots);
}

TEST(RemoteBatching, RangesCoverEveryJobExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 7u, 16u, 100u}) {
    for (const std::size_t batch : {0u, 1u, 3u, 200u}) {
      const auto ranges = plain_ranges(jobs, batch, 4);
      ASSERT_FALSE(ranges.empty());
      std::size_t expect_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, jobs);
    }
  }
  EXPECT_TRUE(plain_ranges(0, 0, 4).empty());
}

TEST(RemoteBatching, AutoSizeAmortizesButKeepsStealingSlack) {
  // ~4 batches per slot: a 64-job sweep over 2 slots packs 8 jobs per
  // batch instead of 64 one-job subprocess spawns.
  const auto ranges = plain_ranges(64, 0, 2);
  EXPECT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges.front().second - ranges.front().first, 8u);
  // Tiny sweeps degenerate to one job per batch, never zero.
  EXPECT_EQ(plain_ranges(3, 0, 16).size(), 3u);
}

TEST(RemoteBatching, RangesCutAtParentGroupBoundaries) {
  // Three 4-fork groups (parent keys 1, 2, 3) behind two FullRun jobs.
  std::vector<JobSpec> jobs(14);
  for (std::size_t i = 2; i < jobs.size(); ++i)
    jobs[i].parent_key = 1 + (i - 2) / 4;
  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;
  // A cut that would split a group backs off to the group's start...
  EXPECT_EQ(remote::batch_ranges(jobs, 5, 1),
            (Ranges{{0, 2}, {2, 6}, {6, 10}, {10, 14}}));
  // ...unless the group alone outgrows the batch: then it spans batches.
  EXPECT_EQ(remote::batch_ranges(jobs, 3, 1),
            (Ranges{{0, 2}, {2, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 13},
                    {13, 14}}));
  // Without groups every cut falls at the batch size.
  EXPECT_EQ(plain_ranges(14, 5, 1), (Ranges{{0, 5}, {5, 10}, {10, 14}}));
}

// ----------------------------------------------------- scheduler plumbing
//
// These tests drive RemoteBackend through injected transports, so they
// exercise the scheduler (work stealing, re-queue, retirement, scratch
// hygiene) without needing the mflushsim binary on disk.

/// Run one batch in-process through run_job — the full file protocol
/// without a subprocess.
void run_batch_in_process(const std::string& job_path,
                          const std::string& result_path) {
  const std::vector<JobSpec> jobs = worker::read_job_file(job_path);
  std::vector<std::pair<std::uint32_t, RunResult>> results;
  results.reserve(jobs.size());
  for (const JobSpec& job : jobs) results.emplace_back(job.id, run_job(job));
  worker::write_result_file(result_path, results);
}

class InProcessTransport final : public remote::Transport {
 public:
  [[nodiscard]] std::string name() const override { return "test-inproc"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&, const std::string& job_path,
                 const std::string& result_path,
                 const std::string&) override {
    run_batch_in_process(job_path, result_path);
  }
};

/// Cross-transport rendezvous: broken transports count their failures /
/// in-flight batches here, gated healthy transports wait on it so the
/// broken host is guaranteed scheduler time before the queue drains (this
/// container has one CPU, so nothing else orders the threads).
struct BrokenRendezvous {
  std::mutex m;
  std::condition_variable cv;
  int broken_events = 0;

  void bump() {
    const std::lock_guard lk(m);
    ++broken_events;
    cv.notify_all();
  }
  /// Wait until `n` broken events happened (timeout as a starvation
  /// backstop so a test can never deadlock on a scheduling fluke).
  void await(int n) {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(2),
                      [&] { return broken_events >= n; });
  }
};

/// Transport that always fails, either in prepare or per batch.
class BrokenTransport final : public remote::Transport {
 public:
  explicit BrokenTransport(bool fail_prepare,
                           BrokenRendezvous* rendezvous = nullptr)
      : fail_prepare_(fail_prepare), rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-broken"; }
  void prepare(const remote::HostSpec& host) override {
    if (fail_prepare_) {
      if (rendezvous_ != nullptr) rendezvous_->bump();
      throw remote::TransportError(host.label() + ": host unreachable");
    }
  }
  void run_batch(const remote::HostSpec& host, const std::string&,
                 const std::string&, const std::string& what) override {
    if (rendezvous_ != nullptr) rendezvous_->bump();
    throw remote::TransportError(host.label() + ": lost contact during " +
                                 what);
  }

 private:
  bool fail_prepare_;
  BrokenRendezvous* rendezvous_;
};

/// Healthy transport gated on the rendezvous, so the broken host pulls
/// its batches before healthy slots can drain the queue.
class GatedInProcessTransport final : public remote::Transport {
 public:
  explicit GatedInProcessTransport(BrokenRendezvous& rendezvous)
      : rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-gated"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&, const std::string& job_path,
                 const std::string& result_path,
                 const std::string&) override {
    rendezvous_.await(2);
    run_batch_in_process(job_path, result_path);
  }

 private:
  BrokenRendezvous& rendezvous_;
};

std::vector<JobSpec> small_grid_jobs() {
  ExperimentSpec spec;
  spec.name = "remote-grid";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.seeds = {1, 2};
  spec.warmup = 300;
  spec.measure = 900;
  return spec.expand();
}

void expect_identical_runs(const std::vector<RunResult>& a,
                           const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

/// Two-host pool where host 1's transport is broken: every one of its
/// batches must steal onto host 0 and the sweep still matches serial.
TEST(RemoteBackendTest, BrokenHostBatchesStealOntoHealthyHost) {
  for (const bool fail_prepare : {false, true}) {
    SCOPED_TRACE(fail_prepare ? "prepare fails" : "run_batch fails");
    RemoteBackend::Options opts;
    opts.worker_binary = "unused-by-injected-transports";
    remote::HostSpec a, b;
    a.name = "healthy";
    a.slots = 2;
    b.name = "broken";
    b.slots = 2;
    opts.hosts = {a, b};
    opts.batch_jobs = 1;
    opts.max_attempts = 8;
    opts.host_max_failures = 2;
    BrokenRendezvous rendezvous;
    opts.transport_factory = [&](const remote::HostSpec& host)
        -> std::unique_ptr<remote::Transport> {
      if (host.name == "broken")
        return std::make_unique<BrokenTransport>(fail_prepare, &rendezvous);
      return std::make_unique<GatedInProcessTransport>(rendezvous);
    };
    std::vector<std::string> events;
    std::mutex events_mutex;
    opts.on_event = [&](const std::string& line) {
      const std::lock_guard lk(events_mutex);
      events.push_back(line);
    };

    const std::vector<JobSpec> jobs = small_grid_jobs();
    RemoteBackend backend(opts);
    const std::vector<RunResult> got = backend.run_collect(jobs);

    SerialBackend serial;
    expect_identical_runs(serial.run_collect(jobs), got);

    bool retired = false;
    for (const std::string& e : events)
      if (e.find("retired") != std::string::npos &&
          e.find("broken#1") != std::string::npos)
        retired = true;
    EXPECT_TRUE(retired) << "expected a broken#1 retirement event";
  }
}

/// Blocks until both broken slots are in flight (the rendezvous counts
/// entries), then fails the batch — forcing the interleaving where a
/// second failure lands on an already-retired host.
class PairedBrokenTransport final : public remote::Transport {
 public:
  explicit PairedBrokenTransport(BrokenRendezvous& rendezvous)
      : rendezvous_(rendezvous) {}
  [[nodiscard]] std::string name() const override { return "test-paired"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host, const std::string&,
                 const std::string&, const std::string& what) override {
    rendezvous_.bump();
    rendezvous_.await(2);
    throw remote::TransportError(host.label() + ": dropped " + what);
  }

 private:
  BrokenRendezvous& rendezvous_;
};

/// Regression: a host whose second slot fails after the host was already
/// retired must not be retired twice — double-decrementing the live-host
/// count once made the scheduler believe one host remained of three and
/// blocked any further retirement.
TEST(RemoteBackendTest, RetiredHostIsNotRetiredTwice) {
  BrokenRendezvous rendezvous;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec a, b, broken;
  a.name = "healthy-a";
  b.name = "healthy-b";
  broken.name = "broken";
  broken.slots = 2;
  opts.hosts = {a, b, broken};
  opts.batch_jobs = 1;
  opts.max_attempts = 8;
  opts.host_max_failures = 1;
  opts.transport_factory = [&](const remote::HostSpec& host)
      -> std::unique_ptr<remote::Transport> {
    if (host.name == "broken")
      return std::make_unique<PairedBrokenTransport>(rendezvous);
    return std::make_unique<GatedInProcessTransport>(rendezvous);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };

  const std::vector<JobSpec> jobs = small_grid_jobs();
  RemoteBackend backend(opts);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));

  std::size_t retirements = 0;
  for (const std::string& e : events) {
    if (e.find("retired") == std::string::npos) continue;
    ++retirements;
    // Three hosts, one retirement: two healthy hosts must remain.
    EXPECT_NE(e.find("remaining 2 host(s)"), std::string::npos) << e;
  }
  EXPECT_EQ(retirements, 1u);
}

TEST(RemoteBackendTest, ExhaustedAttemptsSurfaceTheTransportError) {
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  remote::HostSpec only;
  only.name = "solo";
  opts.hosts = {only};
  opts.batch_jobs = 2;
  opts.max_attempts = 2;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<BrokenTransport>(/*fail_prepare=*/false);
  };

  RemoteBackend backend(opts);
  const std::vector<JobSpec> jobs = small_grid_jobs();
  try {
    (void)backend.run_collect(jobs);
    FAIL() << "expected the sweep to fail";
  } catch (const std::exception& e) {
    // The surfaced error names the underlying transport failure and the
    // batch it killed, not some generic scheduler message.
    EXPECT_NE(std::string(e.what()).find("lost contact"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos)
        << e.what();
  }
}

TEST(RemoteBackendTest, ScratchDirLeftCleanOnSuccessAndFailure) {
  const fs::path scratch =
      fs::path(::testing::TempDir()) / "remote-scratch-test";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  opts.scratch_dir = scratch.string();
  opts.batch_jobs = 2;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<InProcessTransport>();
  };
  const std::vector<JobSpec> jobs = small_grid_jobs();
  (void)RemoteBackend(opts).run_collect(jobs);
  EXPECT_TRUE(fs::is_empty(scratch)) << "success leaked protocol files";

  // Failure path: the job file is staged before the transport throws, and
  // the guard must still scrub it.
  opts.max_attempts = 1;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<BrokenTransport>(/*fail_prepare=*/false);
  };
  EXPECT_THROW((void)RemoteBackend(opts).run_collect(jobs),
               std::exception);
  EXPECT_TRUE(fs::is_empty(scratch)) << "failure leaked protocol files";

  fs::remove_all(scratch);
}

TEST(RemoteBackendTest, KeepFilesLeavesTheProtocolPairs) {
  const fs::path scratch =
      fs::path(::testing::TempDir()) / "remote-keep-test";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  opts.scratch_dir = scratch.string();
  opts.batch_jobs = 4;
  opts.keep_files = true;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<InProcessTransport>();
  };
  std::vector<JobSpec> jobs = small_grid_jobs();
  jobs.resize(4);
  (void)RemoteBackend(opts).run_collect(jobs);

  std::size_t job_files = 0, result_files = 0;
  for (const auto& entry : fs::directory_iterator(scratch)) {
    if (entry.path().extension() == ".mfj") ++job_files;
    if (entry.path().extension() == ".mfr") ++result_files;
  }
  EXPECT_EQ(job_files, 1u);
  EXPECT_EQ(result_files, 1u);
  fs::remove_all(scratch);
}

// ------------------------------------------- end-to-end with the binary

/// The acceptance grid: RemoteBackend over real LocalTransport
/// subprocesses, one host killed mid-run via fail injection, full
/// SimMetrics bit-identity with SerialBackend.
TEST(RemoteBackendTest, MatchesSerialWithMidRunHostFailure) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  RemoteBackend::Options opts;
  remote::HostSpec healthy, flaky;
  healthy.name = "local";
  healthy.slots = 2;
  flaky.name = "local";
  flaky.slots = 2;
  flaky.fail_batches = 2;  // dies on its first two batches, then retires
  opts.hosts = {healthy, flaky};
  opts.batch_jobs = 2;
  opts.host_max_failures = 2;

  const std::vector<JobSpec> jobs = small_grid_jobs();
  RemoteBackend backend(opts);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));
}

/// In-process transport that logs when each batch (named by its job
/// file) starts and ends, in one order shared by every host.
class RecordingTransport final : public remote::Transport {
 public:
  struct Log {
    std::mutex m;
    std::vector<std::pair<bool, std::vector<std::uint32_t>>> entries;
  };
  explicit RecordingTransport(Log& log) : log_(log) {}
  [[nodiscard]] std::string name() const override { return "test-record"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec&, const std::string& job_path,
                 const std::string& result_path,
                 const std::string&) override {
    std::vector<std::uint32_t> ids;
    for (const JobSpec& j : worker::read_job_file(job_path))
      ids.push_back(j.id);
    record(true, ids);
    run_batch_in_process(job_path, result_path);
    record(false, ids);
  }

 private:
  void record(bool start, const std::vector<std::uint32_t>& ids) {
    const std::lock_guard lk(log_.m);
    log_.entries.emplace_back(start, ids);
  }
  Log& log_;
};

TEST(RemoteBackendTest, GroupsSpanningBatchesWaitForTheirHeadBatch) {
  // Two hosts with separate stores (non-local names, injected transport),
  // 2 parents x 6 forks in 2-job batches: every group spans 3 batches.
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 310;
  spec.measure = 400;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 6;
  spec.sampled.fork_stride = 100;
  const std::vector<JobSpec> jobs = spec.expand();

  const fs::path dir = fs::path(::testing::TempDir()) / "remote-group-test";
  fs::remove_all(dir);
  RecordingTransport::Log log;
  RemoteBackend::Options opts;
  opts.worker_binary = "unused-by-injected-transports";
  opts.scratch_dir = dir.string();
  opts.batch_jobs = 2;
  remote::HostSpec a, b;
  a.name = "host-a";
  a.slots = 2;
  a.remote_dir = (dir / "a").string();
  b = a;
  b.name = "host-b";
  b.remote_dir = (dir / "b").string();
  opts.hosts = {a, b};
  opts.transport_factory = [&](const remote::HostSpec&) {
    return std::make_unique<RecordingTransport>(log);
  };
  std::vector<std::string> events;
  opts.on_event = [&](const std::string& e) { events.push_back(e); };
  fs::create_directories(dir);
  RemoteBackend backend(opts);
  const std::vector<RunResult> results = backend.run_collect(jobs);

  // A batch holding a group's later forks starts only after the batch
  // holding its head (job 0 or 6) has ended.
  const auto ended = [&](std::size_t upto, std::uint32_t head) {
    for (std::size_t e = 0; e < upto; ++e) {
      const auto& [start, ids] = log.entries[e];
      if (!start && std::find(ids.begin(), ids.end(), head) != ids.end())
        return true;
    }
    return false;
  };
  for (std::size_t e = 0; e < log.entries.size(); ++e) {
    const auto& [start, ids] = log.entries[e];
    const std::uint32_t head = ids.front() / 6 * 6;
    if (start && ids.front() != head)
      EXPECT_TRUE(ended(e, head)) << "batch from job " << ids.front();
  }
  // Each parent warms at most once per host store, and nothing uploads.
  std::set<std::string> warmed;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("uploaded parent"), std::string::npos) << e;
    if (e.find("warmed parent") != std::string::npos)
      EXPECT_TRUE(warmed.insert(e).second) << "warmed twice: " << e;
  }
  EXPECT_GE(warmed.size(), 2u);
  EXPECT_LE(warmed.size(), 4u);
  expect_identical_runs(SerialBackend().run_collect(jobs), results);
  fs::remove_all(dir);
}

TEST(RemoteBackendTest, DefaultPoolIsLoopbackFanOut) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  // No hosts described: one local host, results still serial-identical.
  RemoteBackend backend;
  std::vector<JobSpec> jobs = small_grid_jobs();
  jobs.resize(4);
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs), backend.run_collect(jobs));
}

}  // namespace
}  // namespace mflush
