#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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
  // ...and a group larger than the batch size is a batch of its own.
  EXPECT_EQ(remote::batch_ranges(jobs, 3, 1),
            (Ranges{{0, 2}, {2, 6}, {6, 10}, {10, 14}}));
  EXPECT_EQ(remote::batch_ranges(jobs, 1, 1),
            (Ranges{{0, 1}, {1, 2}, {2, 6}, {6, 10}, {10, 14}}));
  // Whole groups pack while they end within the batch size.
  EXPECT_EQ(remote::batch_ranges(jobs, 10, 1), (Ranges{{0, 10}, {10, 14}}));
  // A falling advance does not end a group.
  jobs[4].fork_advance = 5;
  EXPECT_EQ(remote::batch_ranges(jobs, 3, 1),
            (Ranges{{0, 2}, {2, 6}, {6, 10}, {10, 14}}));
  // Without groups every cut falls at the batch size.
  EXPECT_EQ(plain_ranges(14, 5, 1), (Ranges{{0, 5}, {5, 10}, {10, 14}}));
}

// ----------------------------------------------------- scheduler plumbing
//
// These tests drive RemoteBackend through injected transports, so they
// exercise the scheduler (work stealing, re-queue, retirement, scratch
// hygiene) without needing the mflushsim binary on disk.

/// Cross-transport rendezvous: broken transports count their failures /
/// in-flight batches here, gated healthy transports wait on it so the
/// broken host is guaranteed scheduler time before the queue drains (this
/// container has one CPU, so nothing else orders the threads).
struct BrokenRendezvous {
  std::mutex m;
  std::condition_variable cv;
  int broken_events = 0;
  /// Events gated transports wait for; tests spanning several rounds
  /// raise it in between.
  int gate = 2;

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
  void await_gate() {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, std::chrono::seconds(2),
                      [&] { return broken_events >= gate; });
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
  void run_batch(const remote::HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override {
    rendezvous_.await_gate();
    inner_.run_batch(host, job_path, result_path, what);
  }

 private:
  BrokenRendezvous& rendezvous_;
  remote::InProcessTransport inner_;
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
    return std::make_unique<remote::InProcessTransport>();
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
    return std::make_unique<remote::InProcessTransport>();
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

/// An ssh-style store (non-`local` host name) learns each attached parent
/// once for the backend's lifetime: a second run ships hashes only.
TEST(RemoteBackendTest, AnSshStoreReceivesEachParentOnceAcrossRuns) {
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 330;
  spec.measure = 400;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 2;
  spec.sampled.fork_stride = 100;
  std::vector<JobSpec> jobs = spec.expand();
  SerialBackend serial;
  // The serial run warms both parents into the process registry; the warm
  // phase then attaches them, as a hot coordinator would.
  const std::vector<RunResult> expected = serial.run_collect(jobs);
  resolve_parent_snapshots(jobs, serial);
  for (const JobSpec& j : jobs) ASSERT_TRUE(j.snapshot) << "job " << j.id;

  const fs::path dir = fs::path(::testing::TempDir()) / "remote-upload-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RemoteBackend::Options opts;
  opts.scratch_dir = dir.string();
  remote::HostSpec node;
  node.name = "node-a";
  node.remote_dir = (dir / "a").string();
  opts.hosts = {node};
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<remote::InProcessTransport>();
  };
  std::vector<std::string> events;
  opts.on_event = [&](const std::string& e) { events.push_back(e); };
  RemoteBackend backend(opts);
  expect_identical_runs(expected, backend.run_collect(jobs));
  expect_identical_runs(expected, backend.run_collect(jobs));

  std::map<std::string, int> uploads;
  const std::string tag = "uploaded parent ";
  for (const std::string& e : events) {
    const std::size_t at = e.find(tag);
    if (at != std::string::npos)
      ++uploads[e.substr(at + tag.size(), e.find(' ', at + tag.size()) -
                                              at - tag.size())];
  }
  EXPECT_EQ(uploads.size(), 2u);
  for (const auto& [key, n] : uploads) EXPECT_EQ(n, 1) << "parent " << key;
  fs::remove_all(dir);
}

// ------------------------------------------------------------ tenants
//
// One backend, several concurrent run() calls: each is a tenant round
// with its own retries and retirements, fair-shared over the slots.

/// `n` FullRun jobs of one workload (seeds 1..n): transports tell tenants
/// apart by workload name.
std::vector<JobSpec> tenant_jobs(const std::string& workload, std::size_t n) {
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name(workload)};
  spec.policies = {PolicySpec::icount()};
  spec.seeds.clear();
  for (std::uint64_t s = 1; s <= n; ++s) spec.seeds.push_back(s);
  spec.warmup = 200;
  spec.measure = 300;
  return spec.expand();
}

/// In-process transport that shows each batch's host and jobs to a hook
/// before running it; the hook may block (to order the threads) or throw
/// (to fail the batch). One hook serves every host.
class HookedTransport final : public remote::Transport {
 public:
  using Hook = std::function<void(const remote::HostSpec&,
                                  const std::vector<JobSpec>&)>;
  explicit HookedTransport(const Hook& hook) : hook_(hook) {}
  [[nodiscard]] std::string name() const override { return "test-hooked"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override {
    hook_(host, worker::read_job_file(job_path));
    inner_.run_batch(host, job_path, result_path, what);
  }

 private:
  const Hook& hook_;
  remote::InProcessTransport inner_;
};

/// One-job batches over one slot per named host, every host running
/// through `hook`.
RemoteBackend::Options hooked_pool(const std::vector<std::string>& names,
                                   const HookedTransport::Hook& hook) {
  RemoteBackend::Options opts;
  for (const std::string& name : names) {
    remote::HostSpec h;
    h.name = name;
    opts.hosts.push_back(h);
  }
  opts.batch_jobs = 1;
  opts.transport_factory = [&hook](const remote::HostSpec&) {
    return std::make_unique<HookedTransport>(hook);
  };
  return opts;
}

TEST(RemoteTenants, ConcurrentRunsOnOneBackendMatchSerial) {
  RemoteBackend::Options opts;
  remote::HostSpec host;
  host.name = "local";
  host.slots = 2;
  opts.hosts = {host};
  opts.batch_jobs = 1;
  opts.transport_factory = [](const remote::HostSpec&) {
    return std::make_unique<remote::InProcessTransport>();
  };
  RemoteBackend backend(opts);
  const std::vector<JobSpec> a = small_grid_jobs();
  const std::vector<JobSpec> b = tenant_jobs("4W1", 4);
  auto fa = std::async(std::launch::async,
                       [&] { return backend.run_collect(a); });
  auto fb = std::async(std::launch::async,
                       [&] { return backend.run_collect(b); });
  const std::vector<RunResult> got_a = fa.get();
  const std::vector<RunResult> got_b = fb.get();
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(a), got_a);
  expect_identical_runs(serial.run_collect(b), got_b);
}

TEST(RemoteTenants, FairShareLetsASmallTenantOvertakeABigOne) {
  // One slot. The big tenant's first batch holds it until the small
  // tenant has arrived; from then on the tenant with fewer jobs dispatched
  // goes next, ties to the older tenant: big, small, big, small, big...
  using namespace std::chrono_literals;
  std::mutex m;
  std::condition_variable cv;
  bool small_started = false;
  std::vector<std::string> order;
  const HookedTransport::Hook hook = [&](const remote::HostSpec&,
                                         const std::vector<JobSpec>& jobs) {
    std::unique_lock lk(m);
    order.push_back(jobs.front().workload.name);
    cv.notify_all();
    if (order.size() != 1) return;
    (void)cv.wait_for(lk, 10s, [&] { return small_started; });
    lk.unlock();
    std::this_thread::sleep_for(200ms);  // the small tenant queues meanwhile
  };
  RemoteBackend backend(hooked_pool({"solo"}, hook));
  const std::vector<JobSpec> big = tenant_jobs("2W1", 20);
  const std::vector<JobSpec> small = tenant_jobs("2W3", 2);

  auto fb = std::async(std::launch::async,
                       [&] { return backend.run_collect(big); });
  {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, 10s, [&] { return !order.empty(); });
    small_started = true;
  }
  cv.notify_all();
  const std::vector<RunResult> got_small = backend.run_collect(small);
  const std::vector<RunResult> got_big = fb.get();

  ASSERT_EQ(order.size(), 22u);
  EXPECT_EQ(order[0], "2W1");
  EXPECT_EQ(order[1], "2W3");
  EXPECT_EQ(order[2], "2W1");
  EXPECT_EQ(order[3], "2W3");
  const auto last_of = [&](const std::string& w) {
    return std::find(order.rbegin(), order.rend(), w).base() - order.begin();
  };
  EXPECT_LT(last_of("2W3"), last_of("2W1"))
      << "the small tenant finished after the big one's last batch began";
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(big), got_big);
  expect_identical_runs(serial.run_collect(small), got_small);
}

TEST(RemoteTenants, CancelDropsQueuedBatchesAndLetsInFlightOnesFinish) {
  using namespace std::chrono_literals;
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  std::vector<std::string> started;
  const HookedTransport::Hook hook = [&](const remote::HostSpec&,
                                         const std::vector<JobSpec>& jobs) {
    std::unique_lock lk(m);
    started.push_back(jobs.front().workload.name);
    cv.notify_all();
    if (jobs.front().workload.name == "2W1")
      (void)cv.wait_for(lk, 10s, [&] { return released; });
  };
  RemoteBackend backend(hooked_pool({"solo"}, hook));
  RemoteBackend::Tenant tenant(backend);
  const std::vector<JobSpec> a = tenant_jobs("2W1", 6);
  const std::vector<JobSpec> b = tenant_jobs("2W3", 3);

  ResultSink a_sink;
  auto fa = std::async(std::launch::async, [&] { tenant.run(a, a_sink); });
  {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, 10s, [&] { return !started.empty(); });
  }
  auto fb = std::async(std::launch::async,
                       [&] { return backend.run_collect(b); });
  tenant.cancel();
  {
    const std::lock_guard lk(m);
    released = true;
  }
  cv.notify_all();

  try {
    fa.get();
    FAIL() << "expected the cancelled round to throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("campaign cancelled"),
              std::string::npos)
        << e.what();
  }
  SerialBackend serial;
  expect_identical_runs(serial.run_collect(b), fb.get());
  // The in-flight batch finished and delivered; the queued ones never ran.
  EXPECT_EQ(a_sink.completed(), 1u);
  EXPECT_EQ(tenant.executed(), 1u);
  // A cancelled tenant queues nothing more.
  ResultSink again;
  EXPECT_THROW(tenant.run(a, again), std::runtime_error);
  const std::lock_guard lk(m);
  EXPECT_EQ(std::count(started.begin(), started.end(), "2W1"), 1);
}

/// Fails its first `failures` batches, then runs them in-process; every
/// outcome is a rendezvous event.
class FlakyTransport final : public remote::Transport {
 public:
  FlakyTransport(BrokenRendezvous& rendezvous, int failures)
      : rendezvous_(rendezvous), failures_(failures) {}
  [[nodiscard]] std::string name() const override { return "test-flaky"; }
  void prepare(const remote::HostSpec&) override {}
  void run_batch(const remote::HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override {
    if (failures_.fetch_sub(1) > 0) {
      rendezvous_.bump();
      throw remote::TransportError(host.label() + ": flaked on " + what);
    }
    inner_.run_batch(host, job_path, result_path, what);
    rendezvous_.bump();
  }

 private:
  BrokenRendezvous& rendezvous_;
  std::atomic<int> failures_;
  remote::InProcessTransport inner_;
};

TEST(RemoteTenants, AHostRetiredInOneRunServesTheNext) {
  BrokenRendezvous rendezvous;
  RemoteBackend::Options opts;
  remote::HostSpec healthy, flaky;
  healthy.name = "healthy";
  flaky.name = "flaky";
  opts.hosts = {healthy, flaky};
  opts.batch_jobs = 1;
  opts.max_attempts = 8;
  opts.host_max_failures = 2;
  opts.transport_factory = [&](const remote::HostSpec& host)
      -> std::unique_ptr<remote::Transport> {
    if (host.name == "flaky")
      return std::make_unique<FlakyTransport>(rendezvous, 2);
    return std::make_unique<GatedInProcessTransport>(rendezvous);
  };
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };
  RemoteBackend backend(opts);
  SerialBackend serial;

  // Run 1: the flaky host fails twice and is retired.
  const std::vector<JobSpec> first = small_grid_jobs();
  expect_identical_runs(serial.run_collect(first),
                        backend.run_collect(first));
  const auto retirements = [&] {
    const std::lock_guard lk(events_mutex);
    return std::count_if(events.begin(), events.end(), [](const auto& e) {
      return e.find("flaky#1 retired") != std::string::npos;
    });
  };
  ASSERT_EQ(retirements(), 1);

  // Run 2: the healthy host waits until the flaky one has run a batch,
  // which it can only do if its retirement ended with run 1.
  {
    const std::lock_guard lk(rendezvous.m);
    rendezvous.gate = 3;
  }
  const std::vector<JobSpec> second = tenant_jobs("2W1", 2);
  expect_identical_runs(serial.run_collect(second),
                        backend.run_collect(second));
  EXPECT_EQ(retirements(), 1);
  const std::lock_guard lk(rendezvous.m);
  EXPECT_GE(rendezvous.broken_events, 3) << "flaky#1 ran nothing in run 2";
}

TEST(RemoteTenants, APoisonTenantRetiresNoHostForAnother) {
  // Tenant A's only job is poison. Its first failure retires that host
  // for A, its second attempt holds the other host until tenant B is done
  // — so B can only finish on the host A retired.
  using namespace std::chrono_literals;
  std::mutex m;
  std::condition_variable cv;
  int poison_attempts = 0;
  bool b_done = false;
  std::vector<std::string> b_hosts;
  const HookedTransport::Hook hook = [&](const remote::HostSpec& host,
                                         const std::vector<JobSpec>& jobs) {
    std::unique_lock lk(m);
    if (jobs.front().workload.name != "2W3") {
      b_hosts.push_back(host.label());
      return;
    }
    const int attempt = ++poison_attempts;
    cv.notify_all();
    if (attempt == 2) (void)cv.wait_for(lk, 10s, [&] { return b_done; });
    throw remote::TransportError(host.label() + ": poisoned job");
  };
  RemoteBackend::Options opts = hooked_pool({"alpha", "beta"}, hook);
  opts.max_attempts = 3;
  opts.host_max_failures = 1;
  std::vector<std::string> events;
  std::mutex events_mutex;
  opts.on_event = [&](const std::string& line) {
    const std::lock_guard lk(events_mutex);
    events.push_back(line);
  };
  RemoteBackend backend(opts);

  const std::vector<JobSpec> a = tenant_jobs("2W3", 1);
  const std::vector<JobSpec> b = tenant_jobs("2W1", 3);
  auto fa = std::async(std::launch::async,
                       [&] { return backend.run_collect(a); });
  {
    std::unique_lock lk(m);
    (void)cv.wait_for(lk, 10s, [&] { return poison_attempts >= 2; });
  }
  const std::vector<RunResult> got_b = backend.run_collect(b);
  {
    const std::lock_guard lk(m);
    b_done = true;
  }
  cv.notify_all();
  EXPECT_THROW((void)fa.get(), std::exception);

  std::string retired;
  {
    const std::lock_guard lk(events_mutex);
    for (const std::string& e : events) {
      const std::size_t at = e.find(" retired");
      if (at == std::string::npos) continue;
      EXPECT_TRUE(retired.empty()) << "second retirement: " << e;
      retired = e.substr(0, at);
    }
  }
  ASSERT_FALSE(retired.empty()) << "the poison job retired no host";
  const std::lock_guard lk(m);
  ASSERT_EQ(b_hosts.size(), 3u);
  for (const std::string& h : b_hosts) EXPECT_EQ(h, retired);
  expect_identical_runs(SerialBackend().run_collect(b), got_b);
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
  void run_batch(const remote::HostSpec& host, const std::string& job_path,
                 const std::string& result_path,
                 const std::string& what) override {
    std::vector<std::uint32_t> ids;
    for (const JobSpec& j : worker::read_job_file(job_path))
      ids.push_back(j.id);
    record(true, ids);
    inner_.run_batch(host, job_path, result_path, what);
    record(false, ids);
  }

 private:
  void record(bool start, const std::vector<std::uint32_t>& ids) {
    const std::lock_guard lk(log_.m);
    log_.entries.emplace_back(start, ids);
  }
  Log& log_;
  remote::InProcessTransport inner_;
};

TEST(RemoteBackendTest, GroupsLargerThanABatchRunWhole) {
  // Two hosts with separate stores (non-local names, injected transport),
  // 2 parents x 6 forks in 2-job batches: every group outgrows its batch.
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

  // Each batch is one whole group: jobs 0-5 or 6-11.
  std::size_t batches = 0;
  for (const auto& [start, ids] : log.entries) {
    if (!start) continue;
    ++batches;
    ASSERT_EQ(ids.size(), 6u);
    for (std::size_t k = 0; k < ids.size(); ++k)
      EXPECT_EQ(ids[k], ids.front() + k);
    EXPECT_EQ(ids.front() % 6, 0u);
  }
  EXPECT_EQ(batches, 2u);
  // Each parent warms once, in the one batch that holds its group, and
  // nothing uploads.
  std::set<std::string> warmed;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("uploaded parent"), std::string::npos) << e;
    if (e.find("warmed parent") != std::string::npos)
      EXPECT_TRUE(warmed.insert(e).second) << "warmed twice: " << e;
  }
  EXPECT_EQ(warmed.size(), 2u);
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
