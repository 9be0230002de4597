#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/parallel.h"
#include "sim/remote.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"
#include "trace/spec2000.h"

namespace mflush {
namespace {

// -------------------------------------------------------------- ResultSink

TEST(ResultSink, CollectRestoresJobIdOrder) {
  ResultSink sink;
  JobSpec j1, j0;
  j0.id = 0;
  j1.id = 1;
  RunResult a, b;
  a.workload = "A";
  b.workload = "B";
  sink.push(j1, b);  // completion order != id order
  sink.push(j0, a);
  EXPECT_EQ(sink.completed(), 2u);
  const auto out = sink.collect();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].workload, "A");
  EXPECT_EQ(out[1].workload, "B");
  EXPECT_EQ(sink.at(1).workload, "B");
}

TEST(ResultSink, StreamsResultsThroughCallback) {
  std::atomic<int> calls{0};
  ResultSink sink([&](const JobSpec& job, const RunResult& r) {
    ++calls;
    EXPECT_EQ(job.workload.name, r.workload);
  });
  JobSpec j;
  j.id = 0;
  j.workload.name = "X";
  RunResult r;
  r.workload = "X";
  sink.push(j, r);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ResultSink, RejectsGapsAndDuplicates) {
  ResultSink sink;
  JobSpec j;
  j.id = 2;
  sink.push(j, RunResult{});
  EXPECT_THROW((void)sink.collect(), std::runtime_error);  // 0 and 1 missing
  EXPECT_THROW((void)sink.at(0), std::runtime_error);
  EXPECT_THROW(sink.push(j, RunResult{}), std::runtime_error);  // duplicate
}

// --------------------------------------------------------- worker protocol

TEST(WorkerProtocol, JobFileRoundTrip) {
  // One of each job shape: catalog, ad-hoc profiles, snapshot fork.
  JobSpec catalog;
  catalog.id = 0;
  catalog.workload = *workloads::by_name("2W1");
  catalog.policy = PolicySpec::flush_spec(40);
  catalog.seed = 7;
  catalog.warmup = 123;
  catalog.measure = 456;

  JobSpec custom;
  custom.id = 1;
  custom.workload.name = "custom-pair";
  custom.profiles = {*spec2000::by_name("mcf"), *spec2000::by_name("gzip")};
  custom.policy = PolicySpec::mflush();
  custom.measure = 789;

  CmpSimulator donor(*workloads::by_name("2W1"), PolicySpec::mflush(), 1);
  donor.run(500);
  JobSpec fork;
  fork.id = 2;
  fork.workload = donor.workload();
  fork.policy = donor.policy();
  fork.measure = 1'000;
  fork.fork_advance = 250;
  fork.snapshot = std::make_shared<const std::vector<std::uint8_t>>(
      snapshot::capture(donor));

  const std::string path = ::testing::TempDir() + "jobs.mfj";
  worker::write_job_file(path, {catalog, custom, fork});
  const std::vector<JobSpec> loaded = worker::read_job_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].workload.name, "2W1");
  EXPECT_EQ(loaded[0].workload.codes, catalog.workload.codes);
  EXPECT_EQ(loaded[0].policy, catalog.policy);
  EXPECT_EQ(loaded[0].seed, 7u);
  EXPECT_EQ(loaded[0].warmup, 123u);
  EXPECT_EQ(loaded[0].measure, 456u);
  EXPECT_EQ(loaded[0].snapshot, nullptr);

  ASSERT_EQ(loaded[1].profiles.size(), 2u);
  EXPECT_EQ(loaded[1].profiles[0].name, "mcf");
  EXPECT_EQ(loaded[1].profiles[0].f_load, custom.profiles[0].f_load);
  EXPECT_EQ(loaded[1].profiles[1].mem_lines, custom.profiles[1].mem_lines);

  ASSERT_NE(loaded[2].snapshot, nullptr);
  EXPECT_EQ(*loaded[2].snapshot, *fork.snapshot);
  EXPECT_EQ(loaded[2].fork_advance, 250u);
}

TEST(WorkerProtocol, ResultFileRoundTripIsBitExact) {
  const RunResult r =
      run_point(*workloads::by_name("2W1"), PolicySpec::mflush(), 1, 500,
                1'500);
  const std::string path = ::testing::TempDir() + "results.mfr";
  worker::write_result_file(path, {{4u, r}});
  const auto loaded = worker::read_result_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].first, 4u);
  EXPECT_EQ(loaded[0].second.workload, r.workload);
  EXPECT_EQ(loaded[0].second.policy, r.policy);
  // Full SimMetrics equality: doubles cross the file boundary bit-exact.
  EXPECT_TRUE(loaded[0].second.metrics == r.metrics);
  EXPECT_EQ(loaded[0].second.wall_seconds, r.wall_seconds);
  EXPECT_EQ(loaded[0].second.simulated_cycles, r.simulated_cycles);
}

TEST(WorkerProtocol, RejectsCorruptAndMismatchedFiles) {
  JobSpec job;
  job.workload = *workloads::by_name("2W1");
  job.policy = PolicySpec::icount();
  job.measure = 100;
  const std::string path = ::testing::TempDir() + "corrupt.mfj";
  worker::write_job_file(path, {job});

  // Flip one byte in the middle: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    char c = 0;
    f.seekg(30);
    f.get(c);
    f.seekp(30);
    f.put(static_cast<char>(c ^ 0x20));
  }
  EXPECT_THROW((void)worker::read_job_file(path), std::runtime_error);
  // A failing worker run must report failure, not write a result file.
  const std::string out = path + ".result";
  EXPECT_NE(worker::run_worker(path, out), 0);
  std::remove(path.c_str());

  // A result file is not a job file.
  const std::string res_path = ::testing::TempDir() + "not_a_job.mfr";
  worker::write_result_file(res_path, {});
  EXPECT_THROW((void)worker::read_job_file(res_path), std::runtime_error);
  std::remove(res_path.c_str());
}

// ---------------------------------------------- cross-backend determinism

void expect_identical_runs(const std::vector<RunResult>& a,
                           const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // Full SimMetrics equality (operator== covers every field, including
    // the policy counters and the L2 hit-time histogram).
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

/// The `--backend worker` pool: RemoteBackend over one `local` host of
/// `slots` worker slots (0: ParallelRunner::default_jobs()).
RemoteBackend::Options loopback(unsigned slots = 0) {
  remote::HostSpec local;
  local.name = "local";
  local.slots = slots != 0 ? slots : ParallelRunner::default_jobs();
  RemoteBackend::Options o;
  o.hosts = {local};
  return o;
}

TEST(Backend, CrossBackendDeterminism) {
  // The redesign's core guarantee: serial loop == SerialBackend ==
  // InProcessBackend == the worker pool over a workload x policy grid,
  // full SimMetrics equality.
  ExperimentSpec spec;
  spec.name = "xbackend";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::flush_spec(30),
                   PolicySpec::mflush()};
  spec.warmup = 500;
  spec.measure = 1'500;
  const std::vector<JobSpec> jobs = spec.expand();

  // Hand-rolled serial reference loop, the pre-redesign ground truth.
  std::vector<RunResult> reference;
  for (const JobSpec& j : jobs)
    reference.push_back(
        run_point(j.workload, j.policy, j.seed, j.warmup, j.measure));

  SerialBackend serial;
  expect_identical_runs(reference, serial.run_collect(jobs));

  InProcessBackend inprocess;
  expect_identical_runs(reference, inprocess.run_collect(jobs));

  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  RemoteBackend worker(loopback());
  expect_identical_runs(reference, worker.run_collect(jobs));
}

TEST(Backend, CrossBackendDeterminismUnderDramModel) {
  // Same guarantee with the banked-DRAM memory model as the sweep axis:
  // the model kind and knobs ride in each JobSpec, so every backend
  // (including the worker subprocess, which rebuilds the chip from the
  // job file alone) must construct the identical memory system.
  ExperimentSpec spec;
  spec.name = "xbackend-dram";
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::flush_spec(30), PolicySpec::mflush()};
  spec.warmup = 500;
  spec.measure = 1'500;
  spec.mem_model = MemModelKind::BankedDram;
  // Full-range far class (trace addresses are salted above 2^40).
  spec.dram.far_base = 0;
  spec.dram.far_bytes = ~std::uint64_t{0};
  const std::vector<JobSpec> jobs = spec.expand();

  SerialBackend serial;
  const std::vector<RunResult> reference = serial.run_collect(jobs);
  // The DRAM model actually ran and the far class actually triggered
  // (both flow through the metrics wire).
  std::uint64_t touches = 0, far = 0;
  for (const RunResult& r : reference) {
    touches += r.metrics.dram_row_hits + r.metrics.dram_row_misses;
    far += r.metrics.dram_far_accesses;
  }
  EXPECT_GT(touches, 0u);
  EXPECT_GT(far, 0u);

  InProcessBackend inprocess;
  expect_identical_runs(reference, inprocess.run_collect(jobs));

  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  RemoteBackend worker(loopback());
  expect_identical_runs(reference, worker.run_collect(jobs));
}

TEST(Backend, WorkerBackendRunsProfileAndForkJobs) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  // Both non-catalog job shapes must survive the process boundary.
  JobSpec custom;
  custom.id = 0;
  custom.workload.name = "custom";
  custom.profiles = {*spec2000::by_name("twolf"), *spec2000::by_name("vpr")};
  custom.policy = PolicySpec::mflush();
  custom.warmup = 400;
  custom.measure = 1'200;

  CmpSimulator donor(*workloads::by_name("2W1"), PolicySpec::icount(), 3);
  donor.run(600);
  JobSpec fork;
  fork.id = 1;
  fork.workload = donor.workload();
  fork.policy = donor.policy();
  fork.measure = 1'000;
  fork.fork_advance = 300;
  fork.snapshot = std::make_shared<const std::vector<std::uint8_t>>(
      snapshot::capture(donor));

  SerialBackend serial;
  RemoteBackend worker(loopback());
  expect_identical_runs(serial.run_collect({custom, fork}),
                        worker.run_collect({custom, fork}));
}

// ------------------------------------------------------------ sampled mode

TEST(Backend, SampledStoppingRuleIsBackendIndependent) {
  ExperimentSpec spec;
  spec.name = "sampled";
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 600;
  spec.measure = 800;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 2;
  spec.sampled.fork_stride = 400;
  spec.sampled.target_half_width = 1e-6;  // practically unreachable
  spec.sampled.max_rounds = 3;

  SerialBackend serial;
  InProcessBackend inprocess;
  // Capture the stride schedule through the sink: continuation rounds must
  // extend each point's fork_advance sequence contiguously (0, s, 2s, ...)
  // with no duplicates — a duplicated advance would double-count one
  // sample in the CI statistics.
  std::vector<std::vector<Cycle>> advances(2);
  ResultSink sink([&](const JobSpec& job, const RunResult& r) {
    advances[r.policy == "ICOUNT" ? 0 : 1].push_back(job.fork_advance);
  });
  const std::vector<RunResult> a = run_experiment(spec, serial, sink);
  const std::vector<RunResult> b = run_experiment(spec, inprocess);
  expect_identical_runs(a, b);

  // The unreachable target forces every round: 2 points x 2 forks x 3.
  EXPECT_EQ(a.size(), 12u);
  for (auto& per_point : advances) {
    std::sort(per_point.begin(), per_point.end());
    ASSERT_EQ(per_point.size(), 6u);
    for (std::size_t k = 0; k < per_point.size(); ++k)
      EXPECT_EQ(per_point[k], k * spec.sampled.fork_stride);
  }
}

TEST(Backend, SampledFixedForksMatchesDirectForkRuns) {
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::mflush()};
  spec.warmup = 500;
  spec.measure = 1'000;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = 250;

  SerialBackend serial;
  const std::vector<RunResult> sampled = run_experiment(spec, serial);
  ASSERT_EQ(sampled.size(), 3u);

  // Reference: warm the parent by hand and fork directly.
  CmpSimulator parent(spec.workloads[0], spec.policies[0], 1);
  parent.run(spec.warmup);
  const std::vector<std::uint8_t> snap = snapshot::capture(parent);
  for (std::uint32_t k = 0; k < 3; ++k) {
    const RunResult direct =
        run_point_from_snapshot(snap, k * 250, spec.measure);
    EXPECT_TRUE(direct.metrics == sampled[k].metrics) << "fork " << k;
  }
}

// ------------------------------------------------------ worker error paths
//
// Fake worker executables (shell scripts standing in for mflushsim) drive
// every failure mode a real distributed sweep hits: death by signal,
// nonzero exit, corrupt or truncated result files. After each, the scratch
// directory must hold no leaked .mfj/.mfr protocol files — the RAII guard
// fix — and the surfaced error must name the job, not just the binary.

namespace fs = std::filesystem;

class FakeWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("fake-worker-") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Install an executable /bin/sh script as the "worker binary".
  std::string write_script(const std::string& body) {
    const fs::path path = dir_ / "fake-worker.sh";
    {
      std::ofstream out(path);
      out << "#!/bin/sh\n" << body;
    }
    fs::permissions(path, fs::perms::owner_all, fs::perm_options::add);
    return path.string();
  }

  /// Leaked protocol files in the scratch dir.
  [[nodiscard]] std::size_t scratch_files() const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const auto ext = entry.path().extension();
      if (ext == ".mfj" || ext == ".mfr") ++n;
    }
    return n;
  }

  [[nodiscard]] RemoteBackend::Options script_options(
      const std::string& script) const {
    RemoteBackend::Options o = loopback(1);
    o.worker_binary = script;
    o.scratch_dir = dir_.string();
    o.batch_jobs = 1;
    o.max_attempts = 2;
    return o;
  }

  [[nodiscard]] static std::vector<JobSpec> tiny_jobs() {
    ExperimentSpec spec;
    spec.workloads = {*workloads::by_name("2W1")};
    spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
    spec.warmup = 200;
    spec.measure = 400;
    return spec.expand();
  }

  void expect_failure_containing(RemoteBackend::Options opts,
                                 const std::vector<std::string>& needles) {
    RemoteBackend backend(std::move(opts));
    try {
      (void)backend.run_collect(tiny_jobs());
      FAIL() << "expected the sweep to fail";
    } catch (const std::exception& e) {
      const std::string what = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(what.find(needle), std::string::npos)
            << "missing '" << needle << "' in: " << what;
      }
    }
    EXPECT_EQ(scratch_files(), 0u)
        << "error path leaked protocol files in " << dir_;
  }

  fs::path dir_;
};

TEST_F(FakeWorkerTest, SignalKilledWorkerNamesTheJobAndCleansScratch) {
  const std::string script = write_script("kill -KILL $$\n");
  expect_failure_containing(script_options(script),
                            {"killed by signal", "job"});
}

TEST_F(FakeWorkerTest, NonzeroExitSurfacesTheCodeAndCleansScratch) {
  const std::string script = write_script("exit 3\n");
  expect_failure_containing(script_options(script), {"code 3", "job"});
}

TEST_F(FakeWorkerTest, CorruptResultFileIsRejectedAndCleaned) {
  // The worker "succeeds" but writes garbage where the result file should
  // be: the checksum gate must reject it, not half-read it.
  const std::string script =
      write_script("printf 'garbage-result' > \"$4\"\nexit 0\n");
  expect_failure_containing(script_options(script), {"result file"});
}

TEST_F(FakeWorkerTest, TruncatedResultFileIsRejectedAndCleaned) {
  const std::string script = write_script(": > \"$4\"\nexit 0\n");
  expect_failure_containing(script_options(script), {"truncated"});
}

TEST_F(FakeWorkerTest, RetriesAreBoundedPerBatchWithSplitting) {
  // One batch holding both jobs, always failing, one slot (deterministic
  // order): the 2-job batch fails once and splits into two singles with
  // fresh budgets; each single fails in turn until the first one exhausts
  // its max_attempts and aborts the sweep. 1 + 1 + 1 + 1 = 4 invocations —
  // bounded, and the poison job can only burn its own budget.
  const std::string count = (dir_ / "invocations").string();
  const std::string script =
      write_script("echo x >> \"" + count + "\"\nexit 9\n");
  RemoteBackend::Options opts = script_options(script);
  opts.batch_jobs = 2;
  opts.max_attempts = 2;
  expect_failure_containing(std::move(opts), {"code 9"});

  std::ifstream in(count);
  std::size_t invocations = 0;
  for (std::string line; std::getline(in, line);) ++invocations;
  EXPECT_EQ(invocations, 4u);
}

TEST_F(FakeWorkerTest, PoisonJobOnlySinksItsOwnBatchMates) {
  // A worker that fails whenever job 1's spec is in its batch, and execs
  // the real worker otherwise. With both jobs sharing one batch, splitting
  // isolates the poison job into its own single-job batch: job 0 still
  // completes, and the surfaced error names the poisoned work.
  const std::string real = default_worker_binary();
  if (real.empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  // The scratch stem embeds the batch's first job id, so the script can
  // tell the post-split poison single (-job1-) apart; the initial 2-job
  // batch (-job0-, poisoned by membership) fails via the first-run marker.
  const std::string marker = (dir_ / "pair-batch-ran").string();
  const std::string script = write_script(
      "case \"$2\" in *-job1-*) exit 9;; esac\n"
      "if [ ! -e \"" + marker + "\" ]; then : > \"" + marker +
      "\"; exit 9; fi\nexec \"" + real + "\" \"$@\"\n");
  RemoteBackend::Options opts = script_options(script);
  opts.batch_jobs = 2;
  opts.max_attempts = 2;
  RemoteBackend backend(std::move(opts));
  const std::vector<JobSpec> jobs = tiny_jobs();

  ResultSink sink;
  try {
    backend.run(jobs, sink);
    FAIL() << "expected the poisoned sweep to fail";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("code 9"), std::string::npos)
        << e.what();
  }
  // The healthy half of the split batch ran to completion before the
  // poison single exhausted its attempts.
  EXPECT_EQ(sink.completed(), 1u);
  SerialBackend serial;
  expect_identical_runs({serial.run_collect(jobs).front()}, {sink.at(0)});
}

TEST_F(FakeWorkerTest, TransientFailureRetriesThenSucceeds) {
  const std::string real = default_worker_binary();
  if (real.empty()) {
    GTEST_SKIP() << "mflushsim binary not found next to the test binary";
  }
  // First invocation dies before touching the protocol files; the retry
  // (fresh scratch stem) execs the real worker and the sweep completes
  // bit-identical to serial.
  const std::string marker = (dir_ / "first-attempt").string();
  const std::string script = write_script(
      "if [ ! -e \"" + marker + "\" ]; then : > \"" + marker +
      "\"; exit 7; fi\nexec \"" + real + "\" \"$@\"\n");
  RemoteBackend::Options opts = script_options(script);
  opts.max_attempts = 3;
  RemoteBackend backend(std::move(opts));
  const std::vector<JobSpec> jobs = tiny_jobs();

  SerialBackend serial;
  expect_identical_runs(serial.run_collect(jobs),
                        backend.run_collect(jobs));
  EXPECT_TRUE(fs::exists(marker)) << "the failing first attempt never ran";
  EXPECT_EQ(scratch_files(), 0u);
}

// ------------------------------------------------------- spawn deadlines

TEST(SpawnAndWait, DeadlineKillsAWedgedChild) {
  // A child that would outlive the deadline is SIGKILLed, reaped, and
  // reported as a timeout naming the work — the mechanism that turns a
  // wedged ssh into an ordinary host failure instead of a hung sweep.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)proc::spawn_and_wait("/bin/sh", {"-c", "sleep 30"},
                               "a wedged link", /*timeout_s=*/1);
    FAIL() << "expected a timeout";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("a wedged link"), std::string::npos) << what;
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 10.0) << "deadline did not cut the 30s sleep short";
}

TEST(SpawnAndWait, FastChildrenFinishUnderADeadline) {
  EXPECT_EQ(proc::spawn_and_wait("/bin/sh", {"-c", "exit 7"}, "",
                                 /*timeout_s=*/30),
            7);
  EXPECT_EQ(proc::spawn_and_wait("/bin/sh", {"-c", "exit 0"}, ""), 0);
}

// ------------------------------------------------ worker binary discovery

TEST(WorkerBinaryDiscovery, NearResolvesSelfAndSibling) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "worker-binary-near-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "mflushsim");
    out << "stub";
  }

  // The executable *is* mflushsim (possibly via a rename check on path).
  EXPECT_EQ(worker_binary_near((dir / "mflushsim").string()),
            (dir / "mflushsim").string());
  // Another tool in the same directory finds the sibling — the argv[0]
  // fallback path used where /proc/self/exe does not exist.
  EXPECT_EQ(worker_binary_near((dir / "renamed-tool").string()),
            (dir / "mflushsim").string());
  EXPECT_EQ(worker_binary_near(""), "");

  fs::remove_all(dir);
  // No mflushsim anywhere near: discovery genuinely fails.
  EXPECT_EQ(worker_binary_near((dir / "renamed-tool").string()), "");
}

TEST(WorkerBinaryDiscovery, RecordedArgv0IsAGracefulFallback) {
  // record_argv0 must never break discovery that already works (the env
  // var and /proc/self/exe take precedence), even fed odd values.
  record_argv0(nullptr);
  record_argv0("");
  record_argv0("relative-name-not-on-disk");
  const std::string before = default_worker_binary();
  record_argv0("/nonexistent/dir/some-tool");
  EXPECT_EQ(default_worker_binary(), before);
}

// -------------------------------------------------------------- the sweep
// conveniences stay routed through the backend machinery

TEST(Backend, RunExperimentStreamsProgress) {
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.warmup = 300;
  spec.measure = 900;

  std::atomic<int> seen{0};
  ResultSink sink([&](const JobSpec&, const RunResult&) { ++seen; });
  SerialBackend serial;
  const auto results = run_experiment(spec, serial, sink);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(seen.load(), 2);
}

}  // namespace
}  // namespace mflush
