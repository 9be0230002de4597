#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/envelope.h"
#include "common/fsio.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/campaign.h"
#include "sim/cmp.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/remote.h"
#include "sim/snapshot.h"
#include "sim/warmstore.h"
#include "sim/workloads.h"

namespace mflush {
namespace {

namespace fs = std::filesystem;

// The in-process registry (warmstore::recall) is process-wide and
// shared by every test in this binary, so each test that cares about
// cold-vs-reused behaviour picks a warmup length nobody else uses — a
// different warmup means a different warm_key, so the registry cannot leak
// warmed parents between tests.
ExperimentSpec sampled_spec(Cycle warmup) {
  ExperimentSpec spec;
  spec.name = "warm-test";
  spec.workloads = {*workloads::by_name("2W1")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.seeds = {1};
  spec.warmup = warmup;
  spec.measure = 600;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 2;
  spec.sampled.fork_stride = 300;
  return spec;
}

void expect_identical_results(const std::vector<RunResult>& a,
                              const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].policy, b[i].policy);
    // Full SimMetrics equality — the warm-store bit-identity contract.
    EXPECT_TRUE(a[i].metrics == b[i].metrics);
  }
}

/// The capture of warm_job_of(fork), warmed by hand (fixed memory, as
/// warm_job_of builds it) without touching the registry.
std::shared_ptr<const std::vector<std::uint8_t>> parent_by_hand(
    const JobSpec& fork) {
  const JobSpec w = warmstore::warm_job_of(fork);
  CmpSimulator sim(w.workload, w.policy, w.seed);
  sim.run(w.warmup);
  return std::make_shared<const std::vector<std::uint8_t>>(
      snapshot::capture(sim));
}

class WarmStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("warmstore-") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// --------------------------------------------------------------------- keys

TEST_F(WarmStoreTest, WarmKeyTracksParentContentOnly) {
  const std::vector<JobSpec> jobs = sampled_spec(400).expand();
  ASSERT_GE(jobs.size(), 3u);
  const JobSpec& fork = jobs[0];

  // Fork-local fields do not participate: every fork of a point, whatever
  // its measure window or result slot, names the same parent.
  JobSpec sib = fork;
  sib.id = 999;
  sib.measure += 500;
  sib.fork_advance += 100;
  EXPECT_EQ(warmstore::warm_key(fork), warmstore::warm_key(sib));

  // Parent-defining fields each change the key.
  JobSpec other = fork;
  other.seed += 1;
  EXPECT_NE(warmstore::warm_key(fork), warmstore::warm_key(other));
  other = fork;
  other.warmup += 1;
  EXPECT_NE(warmstore::warm_key(fork), warmstore::warm_key(other));
  other = fork;
  other.policy = PolicySpec::mflush();  // fork is the icount point
  EXPECT_NE(warmstore::warm_key(fork), warmstore::warm_key(other));
  other = fork;
  other.workload = *workloads::by_name("2W3");
  EXPECT_NE(warmstore::warm_key(fork), warmstore::warm_key(other));
}

TEST_F(WarmStoreTest, WarmJobOfDescribesTheParent) {
  const std::vector<JobSpec> jobs = sampled_spec(400).expand();
  const JobSpec w = warmstore::warm_job_of(jobs[0]);
  EXPECT_EQ(w.parent_key, warmstore::warm_key(jobs[0]));
  EXPECT_EQ(w.workload.name, jobs[0].workload.name);
  EXPECT_EQ(w.policy, jobs[0].policy);
  EXPECT_EQ(w.seed, jobs[0].seed);
  EXPECT_EQ(w.warmup, jobs[0].warmup);
  EXPECT_EQ(w.measure, 0u);
  EXPECT_EQ(w.fork_advance, 0u);
  EXPECT_EQ(w.snapshot, nullptr);
}

TEST_F(WarmStoreTest, ParentOfAForkNamesTheSameWarmKey) {
  // The parent a fork warms from is derived in one place, so warming the
  // parent job stores exactly the entry its forks look up.
  for (const JobSpec& fork : sampled_spec(400).expand()) {
    EXPECT_EQ(warmstore::warm_key(warmstore::warm_job_of(fork)),
              warmstore::warm_key(fork));
  }
}

TEST_F(WarmStoreTest, WarmKeyIsTheParentJobsCampaignKey) {
  // The warm store hashes nothing itself: a parent is named by the one
  // content hash every job has, on fixed memory and on DRAM alike.
  ExperimentSpec dram = sampled_spec(400);
  dram.mem_model = MemModelKind::BankedDram;
  for (const ExperimentSpec& spec : {sampled_spec(400), dram}) {
    for (const JobSpec& fork : spec.expand()) {
      JobSpec parent = warmstore::warm_job_of(fork);
      parent.parent_key = 0;
      EXPECT_EQ(warmstore::warm_key(fork), campaign::job_key(parent));
    }
  }
}

// -------------------------------------------------------------- round trips

TEST_F(WarmStoreTest, PutLookupRoundTripsAcrossInstances) {
  const std::uint64_t key = 0x0123456789abcdefull;
  const auto bytes = parent_by_hand(sampled_spec(400).expand()[0]);

  WarmStore writer(dir_.string());
  EXPECT_FALSE(writer.contains(key));
  writer.put(key, bytes);
  EXPECT_TRUE(writer.contains(key));
  EXPECT_EQ(writer.stats().stored, 1u);
  // The entry is the snapshot itself: no framing around it.
  EXPECT_EQ(writer.stats().bytes_written, bytes->size());

  WarmStore reader(dir_.string());
  const auto got = reader.lookup(key);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, *bytes);
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.lookup(key + 1), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);

  // Put-if-absent: an existing entry is never rewritten.
  WarmStore again(dir_.string());
  again.put(key, bytes);
  EXPECT_EQ(again.stats().stored, 0u);
  EXPECT_EQ(again.stats().bytes_written, 0u);
}

TEST_F(WarmStoreTest, StoredEntryIsTheParentsCapture) {
  // A cold run stores each parent it warms. The entry on disk is that
  // parent's capture byte for byte, so it loads like any snapshot file.
  const ExperimentSpec spec = sampled_spec(483);
  WarmStore store(dir_.string());
  RunOptions ro;
  ro.warm_store = &store;
  SerialBackend serial;
  ResultSink sink;
  (void)run_experiment(spec, serial, sink, ro);
  ASSERT_EQ(store.stats().stored, 2u);
  for (const JobSpec& fork : spec.expand()) {
    SCOPED_TRACE("fork " + std::to_string(fork.id));
    const std::string path = store.path_of(fork.parent_key);
    const auto capture = parent_by_hand(fork);
    EXPECT_TRUE(fsio::read_file_bytes(path, "warm entry") == *capture);
    const auto chip = snapshot::load_file(path);
    EXPECT_EQ(chip->workload().name, fork.workload.name);
    EXPECT_EQ(chip->policy(), fork.policy);
    EXPECT_TRUE(snapshot::capture(*chip) == *capture);
  }
}

TEST_F(WarmStoreTest, JobAndResultArchivesCarryWarmFields) {
  const std::string path = (dir_ / "jobs.mfj").string();
  fs::create_directories(dir_);

  JobSpec by_ref;
  by_ref.id = 4;
  by_ref.workload = *workloads::by_name("2W1");
  by_ref.policy = PolicySpec::icount();
  by_ref.seed = 7;
  by_ref.warmup = 123;
  by_ref.parent_key = 0xfeedfacecafebeefull;
  by_ref.measure = 456;
  by_ref.fork_advance = 78;

  JobSpec resolved = by_ref;
  resolved.id = 5;
  resolved.snapshot = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 2, 3});

  worker::write_job_file(path, {by_ref, resolved});
  const std::vector<JobSpec> back = worker::read_job_file(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].parent_key, by_ref.parent_key);
  EXPECT_EQ(back[0].snapshot, nullptr);
  EXPECT_EQ(back[1].parent_key, resolved.parent_key);
  ASSERT_NE(back[1].snapshot, nullptr);
  EXPECT_EQ(*back[1].snapshot, *resolved.snapshot);

  // Campaign keys must not depend on whether a by-ref fork was resolved to
  // inline bytes: the cache written by one backend has to hit from another.
  EXPECT_EQ(campaign::job_key(by_ref), campaign::job_key(resolved));

  // The result payload survives the result protocol.
  RunResult r;
  r.workload = "2W1";
  r.policy = "icount";
  r.payload = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{9, 8, 7, 6});
  const auto bytes = worker::encode_results({{3u, r}});
  const auto results = worker::decode_results(bytes, "test");
  ASSERT_EQ(results.size(), 1u);
  ASSERT_NE(results[0].second.payload, nullptr);
  EXPECT_EQ(*results[0].second.payload, *r.payload);
}

// ------------------------------------------------------------------- expand

TEST_F(WarmStoreTest, ExpandPerformsNoWarmupSimulation) {
  // Satellite regression: expanding a sampled spec must never warm up
  // inline on the coordinator thread. With a 100M-cycle warmup any inline
  // simulation would take minutes; pure expansion is milliseconds.
  ExperimentSpec spec;
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.policies = {PolicySpec::icount(), PolicySpec::mflush()};
  spec.seeds = {1};
  spec.warmup = 100'000'000;
  spec.measure = 1'000;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = 500;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<JobSpec> jobs = spec.expand();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(seconds, 5.0);

  ASSERT_EQ(jobs.size(), 12u);  // 4 points x 3 forks
  std::set<std::uint64_t> parents;
  for (const JobSpec& j : jobs) {
    EXPECT_EQ(j.snapshot, nullptr);
    EXPECT_NE(j.parent_key, 0u);
    parents.insert(j.parent_key);
  }
  EXPECT_EQ(parents.size(), 4u);
}

// -------------------------------------------------------------- corruption

TEST_F(WarmStoreTest, CorruptEntryIsDiscardedAndRewarmed) {
  // Two kinds of bad entry: a flipped byte, which the trailing checksum
  // catches, and an entry of the previous snapshot version under a valid
  // checksum, which the snapshot's header check catches. Each gets its own
  // warmup, so the registry is cold for both.
  struct Damage {
    const char* name;
    Cycle warmup;
    void (*apply)(std::vector<std::uint8_t>&);
    const char* narrated;
  };
  const Damage damages[] = {
      {"flipped byte", 777,
       [](std::vector<std::uint8_t>& raw) { raw[raw.size() / 2] ^= 0xff; },
       "corrupt"},
      {"stale snapshot version", 778,
       [](std::vector<std::uint8_t>& raw) {
         const std::uint32_t stale = snapshot::kFormatVersion - 1;
         std::memcpy(raw.data() + sizeof(std::uint64_t), &stale,
                     sizeof(stale));
         const std::uint64_t seal = envelope::checksum(
             std::span(raw).first(raw.size() - sizeof(std::uint64_t)));
         std::memcpy(raw.data() + raw.size() - sizeof(seal), &seal,
                     sizeof(seal));
       },
       "version"},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    const fs::path dir = dir_ / std::to_string(damage.warmup);
    const ExperimentSpec spec = sampled_spec(damage.warmup);
    const std::vector<JobSpec> jobs = spec.expand();

    // Seed the store by hand-warming each parent exactly as a fork group
    // would (WarmStore::put does not feed the in-process registry, so the
    // heal below must go through the disk path).
    WarmStore seeded(dir.string());
    for (const JobSpec& j : jobs) {
      if (seeded.contains(j.parent_key)) continue;
      seeded.put(j.parent_key, parent_by_hand(j));
    }
    EXPECT_EQ(seeded.stats().stored, 2u);

    const std::string victim = seeded.path_of(jobs[0].parent_key);
    auto raw = fsio::read_file_bytes(victim, "warm entry");
    damage.apply(raw);
    fsio::write_file_atomic(victim, raw, /*durable=*/false);

    std::vector<std::string> events;
    WarmStore::Options wopts;
    wopts.on_event = [&](const std::string& e) { events.push_back(e); };
    WarmStore healed(dir.string(), std::move(wopts));
    RunOptions ropts;
    ropts.warm_store = &healed;
    SerialBackend serial;
    ResultSink sink;
    const auto results = run_experiment(spec, serial, sink, ropts);

    EXPECT_EQ(healed.stats().corrupt_discarded, 1u);
    EXPECT_EQ(healed.stats().hits, 1u);    // the intact parent
    EXPECT_EQ(healed.stats().misses, 1u);  // the discarded one
    EXPECT_EQ(healed.stats().stored, 1u);  // the healed slot, rewritten
    ASSERT_EQ(events.size(), 1u);
    EXPECT_NE(events[0].find("corrupt"), std::string::npos) << events[0];
    EXPECT_NE(events[0].find(damage.narrated), std::string::npos)
        << events[0];

    // The rewritten entry reads back cleanly from a third instance.
    WarmStore after(dir.string());
    EXPECT_NE(after.lookup(jobs[0].parent_key), nullptr);
    EXPECT_EQ(after.stats().corrupt_discarded, 0u);

    // And the run itself never noticed: bit-identical to a plain serial
    // run.
    ResultSink ref_sink;
    const auto expected = run_experiment(spec, serial, ref_sink);
    expect_identical_results(results, expected);
  }
}

TEST_F(WarmStoreTest, TruncatedEntryIsAMissNotAnError) {
  const std::uint64_t key = 0x1111222233334444ull;
  WarmStore writer(dir_.string());
  writer.put(key, parent_by_hand(sampled_spec(400).expand()[0]));
  // The whole entry reads back: only the truncation below is rejected.
  ASSERT_NE(writer.lookup(key), nullptr);

  const std::string path = writer.path_of(key);
  auto raw = fsio::read_file_bytes(path, "warm entry");
  raw.resize(raw.size() / 2);  // torn write
  fsio::write_file_atomic(path, raw, /*durable=*/false);

  WarmStore reader(dir_.string());
  EXPECT_EQ(reader.lookup(key), nullptr);
  EXPECT_EQ(reader.stats().corrupt_discarded, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_FALSE(fs::exists(path)) << "a corrupt entry must be deleted";
}

TEST_F(WarmStoreTest, ConstructionSweepsOnlyOrphanedTemps) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // `child` is now dead

  fs::create_directories(dir_);
  const auto touch = [&](const std::string& name) {
    std::ofstream(dir_ / name) << "partial";
    return dir_ / name;
  };
  const fs::path orphan =
      touch("0123456789abcdef.mfws.tmp." + std::to_string(child) + ".0");
  const fs::path live =
      touch("fedcba9876543210.mfws.tmp." + std::to_string(::getpid()) + ".0");

  { WarmStore store(dir_.string()); }
  EXPECT_FALSE(fs::exists(orphan)) << "a dead writer's temp survived";
  EXPECT_TRUE(fs::exists(live)) << "a live writer's temp was swept";
}

// ----------------------------------------------------------------- sharing

TEST_F(WarmStoreTest, StoreIsSharedAcrossOverlappingSpecs) {
  SerialBackend serial;

  // Spec A: the icount point only, cold store.
  ExperimentSpec a = sampled_spec(654);
  a.policies = {PolicySpec::icount()};
  WarmStore store_a(dir_.string());
  RunOptions ra;
  ra.warm_store = &store_a;
  ResultSink sink_a;
  (void)run_experiment(a, serial, sink_a, ra);
  EXPECT_EQ(store_a.stats().hits, 0u);
  EXPECT_EQ(store_a.stats().stored, 1u);

  // Spec B overlaps A on (workload, seed, warmup) for icount and adds
  // mflush: the shared parent is already in the store (and, in this
  // process, in the registry, which answers first without reading the
  // entry), so only the new one warms.
  const ExperimentSpec b = sampled_spec(654);
  WarmStore store_b(dir_.string());
  ASSERT_TRUE(store_b.contains(warmstore::warm_key(b.expand().front())));
  RunOptions rb;
  rb.warm_store = &store_b;
  ResultSink sink_b;
  const auto results = run_experiment(b, serial, sink_b, rb);
  EXPECT_EQ(store_b.stats().hits, 0u);
  EXPECT_EQ(store_b.stats().misses, 1u);
  EXPECT_EQ(store_b.stats().stored, 1u);

  ResultSink ref_sink;
  const auto expected = run_experiment(b, serial, ref_sink);
  expect_identical_results(results, expected);
}

// ----------------------------------------------------------- cross-backend

TEST_F(WarmStoreTest, ColdAndHotStoreRunsMatchSerial) {
  const ExperimentSpec spec = sampled_spec(481);
  SerialBackend serial;

  // Genuinely cold reference first: nothing has warmed 481-cycle parents.
  ResultSink ref_sink;
  const auto expected = run_experiment(spec, serial, ref_sink);

  InProcessBackend inproc;
  WarmStore cold(dir_.string());
  RunOptions rc;
  rc.warm_store = &cold;
  ResultSink cold_sink;
  const auto cold_results = run_experiment(spec, inproc, cold_sink, rc);
  expect_identical_results(cold_results, expected);
  EXPECT_EQ(cold.stats().stored, 2u);

  WarmStore hot(dir_.string());
  RunOptions rh;
  rh.warm_store = &hot;
  ResultSink hot_sink;
  const auto hot_results = run_experiment(spec, inproc, hot_sink, rh);
  expect_identical_results(hot_results, expected);
  // The process registry holds both parents and answers before the store:
  // the hot pass reads no entry, and writes none.
  EXPECT_EQ(hot.stats().hits, 0u);
  EXPECT_EQ(hot.stats().misses, 0u);
  EXPECT_EQ(hot.stats().stored, 0u);
}

/// The `--backend worker` pool: one `local` host of `slots` worker slots
/// reading and filling `store`.
RemoteBackend::Options loopback(unsigned slots, WarmStore& store) {
  remote::HostSpec local;
  local.name = "local";
  local.slots = slots;
  RemoteBackend::Options o;
  o.hosts = {local};
  o.warm_store = &store;
  return o;
}

TEST_F(WarmStoreTest, WorkerBackendWarmsInSubprocessesAndShipsByHash) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim worker binary not found";
  }
  const ExperimentSpec spec = sampled_spec(482);
  const std::vector<JobSpec> jobs = spec.expand();

  // Independent reference: hand-warm each parent and fork from the bytes
  // directly, touching none of the warm-store machinery.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> parents;
  std::vector<RunResult> expected;
  for (const JobSpec& j : jobs) {
    if (!parents.contains(j.parent_key)) {
      CmpSimulator sim(j.workload, j.policy, j.seed);
      sim.run(j.warmup);
      parents.emplace(j.parent_key, snapshot::capture(sim));
    }
    expected.push_back(run_point_from_snapshot(parents.at(j.parent_key),
                                               j.fork_advance, j.measure));
  }

  // Cold run: each parent warms in the worker subprocess its forks run
  // in, which stores it into the shared host-side store; no parent bytes
  // return over the result protocol.
  WarmStore store(dir_.string());
  RemoteBackend worker(loopback(2, store));
  std::vector<std::string> events;
  RunOptions rw;
  rw.warm_store = &store;
  rw.on_event = [&](const std::string& e) { events.push_back(e); };
  ResultSink sink;
  const auto results = run_experiment(spec, worker, sink, rw);

  expect_identical_results(results, expected);
  EXPECT_EQ(store.stats().misses, 2u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "2 parent(s): 0 reused, 2 warmed");
  // The worker subprocesses stored their captures into the shared dir
  // themselves (the coordinator's put-if-absent found them already there),
  // so a fresh instance reads both entries straight from disk. The entries
  // are not byte-compared against the hand-warmed captures — padding holes
  // in put_vec'd structs make snapshot bytes canonical only per process —
  // but restoring them must fork to bit-identical metrics.
  WarmStore disk(dir_.string());
  for (const JobSpec& j : jobs) {
    const auto entry = disk.lookup(j.parent_key);
    ASSERT_NE(entry, nullptr);
    const RunResult fork =
        run_point_from_snapshot(*entry, j.fork_advance, j.measure);
    EXPECT_TRUE(fork.metrics == expected[j.id].metrics);
  }

  // Hot rerun on a fresh instance: every parent is reused from disk.
  WarmStore hot(dir_.string());
  RemoteBackend worker2(loopback(2, hot));
  std::vector<std::string> hot_events;
  RunOptions rh;
  rh.warm_store = &hot;
  rh.on_event = [&](const std::string& e) { hot_events.push_back(e); };
  ResultSink hot_sink;
  const auto hot_results = run_experiment(spec, worker2, hot_sink, rh);

  expect_identical_results(hot_results, expected);
  EXPECT_EQ(hot.stats().hits, 2u);
  EXPECT_EQ(hot.stats().stored, 0u);
  ASSERT_EQ(hot_events.size(), 1u);
  EXPECT_EQ(hot_events[0], "2 parent(s): 2 reused, 0 warmed");
}

// ------------------------------------------------------ forks warm parents

/// `jobs` with each fork's parent attached the way the warm phase used to
/// resolve it (parent_by_hand).
std::vector<JobSpec> resolved_by_hand(std::vector<JobSpec> jobs) {
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<std::uint8_t>>>
      parents;
  for (JobSpec& j : jobs) {
    auto& bytes = parents[j.parent_key];
    if (!bytes) bytes = parent_by_hand(j);
    j.snapshot = bytes;
  }
  return jobs;
}

/// The cycles a group's pass runs: straight from its parent to the last
/// window's end.
Cycle pass_cycles(const std::vector<JobSpec>& group) {
  Cycle end = 0;
  for (const JobSpec& j : group)
    end = std::max(end, j.fork_advance + j.measure);
  return end;
}

TEST_F(WarmStoreTest, ByRefDramForkWarmsLikeTheResolvedFork) {
  // A fork whose parent is cold warms it wherever it runs, through
  // warm_job_of — which drops mem_model (a known defect, see ROADMAP) while
  // the fork's own config keeps banked DRAM. Every backend must therefore
  // match the fork resolved with warm_job_of's capture; warming with the
  // fork's config instead gives different metrics. Each backend gets its
  // own warmup, so the registry is cold for all three.
  const auto dram_forks = [](Cycle warmup) {
    ExperimentSpec spec = sampled_spec(warmup);
    spec.mem_model = MemModelKind::BankedDram;
    return spec.expand();
  };

  const std::uint64_t before = warmstore::warm_count();
  const std::vector<JobSpec> serial_jobs = dram_forks(491);
  expect_identical_results(SerialBackend().run_collect(serial_jobs),
                           SerialBackend().run_collect(
                               resolved_by_hand(serial_jobs)));
  EXPECT_EQ(warmstore::warm_count() - before, 2u) << "registry was not cold";

  const std::vector<JobSpec> inproc_jobs = dram_forks(492);
  expect_identical_results(InProcessBackend().run_collect(inproc_jobs),
                           SerialBackend().run_collect(
                               resolved_by_hand(inproc_jobs)));

  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim worker binary not found";
  }
  RemoteBackend::Options ro;
  ro.scratch_dir = dir_.string();
  fs::create_directories(dir_);
  RemoteBackend remote(ro);
  const std::vector<JobSpec> remote_jobs = dram_forks(493);
  expect_identical_results(remote.run_collect(remote_jobs),
                           SerialBackend().run_collect(
                               resolved_by_hand(remote_jobs)));
}

TEST_F(WarmStoreTest, ThreadsOverOnePointsForksWarmItsParentOnce) {
  ExperimentSpec spec = sampled_spec(494);
  spec.sampled.forks = 4;
  ParallelRunner pool(3);
  InProcessBackend inproc(pool);
  // The two points' forks interleaved: no two neighbours share a parent,
  // so every fork is a group of its own and the threads race for each
  // parent.
  const std::vector<JobSpec> expanded = spec.expand();
  std::vector<JobSpec> jobs;
  for (std::size_t k = 0; k < 4; ++k) {
    jobs.push_back(expanded[k]);
    jobs.push_back(expanded[4 + k]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ASSERT_EQ(fork_group_end(jobs, i), i + 1);

  const std::uint64_t before = warmstore::warm_count();
  const std::vector<RunResult> results = inproc.run_collect(jobs);
  EXPECT_EQ(warmstore::warm_count() - before, 2u)
      << "sibling forks repeated their parent's warm";
  expect_identical_results(
      results, SerialBackend().run_collect(resolved_by_hand(spec.expand())));
}

TEST_F(WarmStoreTest, InProcessRunsEachGroupAsOnePass) {
  ExperimentSpec spec = sampled_spec(495);
  spec.workloads = {*workloads::by_name("2W1"), *workloads::by_name("2W3")};
  spec.sampled.forks = 3;
  const std::vector<JobSpec> jobs = spec.expand();
  ParallelRunner pool(2);
  InProcessBackend inproc(pool);

  const std::uint64_t before = warmstore::warm_count();
  const std::vector<RunResult> results = inproc.run_collect(jobs);
  EXPECT_EQ(warmstore::warm_count() - before, 4u)
      << "a parent warmed more than once";
  expect_identical_results(
      results, SerialBackend().run_collect(resolved_by_hand(jobs)));
  // Each parent's forks ran as one pass, not one call per fork.
  std::unordered_map<std::uint64_t, std::vector<JobSpec>> groups;
  std::unordered_map<std::uint64_t, Cycle> ran;
  for (const JobSpec& j : jobs) {
    groups[j.parent_key].push_back(j);
    ran[j.parent_key] += results.at(j.id).simulated_cycles;
  }
  ASSERT_EQ(groups.size(), 4u);
  for (const auto& [key, group] : groups)
    EXPECT_EQ(ran.at(key), pass_cycles(group));
}

TEST_F(WarmStoreTest, ColdPoolWarmsEachParentOnceAndUploadsNothing) {
  if (default_worker_binary().empty()) {
    GTEST_SKIP() << "mflushsim worker binary not found";
  }
  // Two local hosts, one slot each, no coordinator store, and two-job
  // batches: each 6-fork group outgrows its batch, so it runs whole as a
  // batch of its own.
  ExperimentSpec spec = sampled_spec(496);
  spec.sampled.forks = 6;
  remote::HostSpec host;
  host.name = "local";
  RemoteBackend::Options ro;
  ro.hosts = {host, host};
  ro.batch_jobs = 2;
  ro.scratch_dir = dir_.string();
  std::vector<std::string> events;
  ro.on_event = [&](const std::string& e) { events.push_back(e); };
  fs::create_directories(dir_);
  RemoteBackend remote(ro);
  const std::vector<RunResult> results = run_experiment(spec, remote);

  std::multiset<std::string> warmed;
  for (const std::string& e : events) {
    EXPECT_EQ(e.find("uploaded parent"), std::string::npos) << e;
    if (const auto at = e.find("warmed parent "); at != std::string::npos)
      warmed.insert(e.substr(at));
  }
  EXPECT_EQ(warmed.size(), 2u);
  EXPECT_EQ(std::set<std::string>(warmed.begin(), warmed.end()).size(), 2u);
  expect_identical_results(
      results, SerialBackend().run_collect(resolved_by_hand(spec.expand())));
}

// -------------------------------------------------------------- fork groups

constexpr Cycle kGroupStride = 400;

/// Three by-reference forks of 2W3 under each policy family on `mem`.
/// `warmup` keeps the parents cold in this process's registry (see
/// sampled_spec); `first` strides precede the first fork, as in a later
/// stopping-rule round.
std::vector<JobSpec> group_forks(Cycle warmup, MemModelKind mem,
                                 std::uint32_t first = 0) {
  ExperimentSpec spec;
  spec.name = "fork-groups";
  spec.workloads = {*workloads::by_name("2W3")};
  for (const char* p :
       {"icount", "flush-s30", "stall-s30", "mflush", "flush-ns"})
    spec.policies.push_back(*PolicySpec::parse(p));
  spec.seeds = {3};
  spec.warmup = warmup;
  spec.measure = 900;
  spec.mode = RunMode::Sampled;
  spec.sampled.forks = 3;
  spec.sampled.fork_stride = kGroupStride;
  spec.mem_model = mem;
  spec.dram.far_base = Addr{1} << 40;
  spec.dram.far_bytes = std::uint64_t{1} << 40;
  std::vector<JobSpec> jobs = spec.expand();
  for (JobSpec& j : jobs) j.fork_advance += first * kGroupStride;
  return jobs;
}

/// Runs `batches` in order through worker::run_worker over one host store
/// (with part files, as the local transport asks for) and returns the
/// results by job id.
std::unordered_map<std::uint32_t, RunResult> run_worker_batches(
    const fs::path& dir, const std::vector<std::vector<JobSpec>>& batches) {
  fs::create_directories(dir);
  std::unordered_map<std::uint32_t, RunResult> out;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::string job = (dir / ("b" + std::to_string(b) + ".mfj")).string();
    const std::string res = (dir / ("b" + std::to_string(b) + ".mfr")).string();
    worker::write_job_file(job, batches[b]);
    EXPECT_EQ(worker::run_worker(job, res, (dir / "store").string(),
                                 /*write_parts=*/true),
              0);
    for (auto& [id, r] : worker::read_result_file(res)) {
      // Each part file carries the same result the batch file does.
      const auto part = worker::read_result_file(res + ".r" +
                                                 std::to_string(id));
      EXPECT_TRUE(part.size() == 1 && part[0].second.metrics == r.metrics);
      out.emplace(id, std::move(r));
    }
  }
  return out;
}

/// Every fork's result equals run_point_from_snapshot of that fork alone,
/// off its parent's hand-warmed capture: full SimMetrics and labels.
void expect_forks_match_alone(
    const std::vector<JobSpec>& jobs,
    const std::unordered_map<std::uint32_t, RunResult>& results) {
  ASSERT_EQ(results.size(), jobs.size());
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const std::vector<std::uint8_t>>>
      parents;
  for (const JobSpec& j : jobs) {
    SCOPED_TRACE(j.policy.label() + " fork " + std::to_string(j.id));
    auto& bytes = parents[j.parent_key];
    if (!bytes) bytes = parent_by_hand(j);
    const RunResult alone =
        run_point_from_snapshot(*bytes, j.fork_advance, j.measure);
    const RunResult& got = results.at(j.id);
    EXPECT_TRUE(got.metrics == alone.metrics);
    EXPECT_EQ(got.workload, alone.workload);
    EXPECT_EQ(got.policy, alone.policy);
  }
}

TEST_F(WarmStoreTest, GroupPassOnALiveWarmedParentMatchesForksAlone) {
  for (const MemModelKind mem :
       {MemModelKind::Fixed, MemModelKind::BankedDram}) {
    const std::vector<JobSpec> jobs =
        group_forks(mem == MemModelKind::Fixed ? 611 : 612, mem);
    const std::uint64_t before = warmstore::warm_count();
    const auto results =
        run_worker_batches(dir_ / std::to_string(int(mem)), {jobs});
    EXPECT_EQ(warmstore::warm_count() - before, 5u)
        << "each group warms its parent once, in this process";
    expect_forks_match_alone(jobs, results);
    // A group's simulated_cycles sum to what its one pass ran: straight
    // to the third fork's end, two strides and one measure.
    std::unordered_map<std::uint64_t, Cycle> ran;
    for (const JobSpec& j : jobs)
      ran[j.parent_key] += results.at(j.id).simulated_cycles;
    for (const auto& [key, cycles] : ran)
      EXPECT_EQ(cycles, 2 * kGroupStride + jobs[0].measure);
    // The live chip's capture reached the host store.
    WarmStore store((dir_ / std::to_string(int(mem)) / "store").string());
    for (const JobSpec& j : jobs) {
      const auto entry = store.lookup(j.parent_key);
      ASSERT_NE(entry, nullptr);
      EXPECT_TRUE(*entry == *parent_by_hand(j));
    }
  }
}

TEST_F(WarmStoreTest, GroupPassOnStoreBytesMatchesForksAlone) {
  for (const MemModelKind mem :
       {MemModelKind::Fixed, MemModelKind::BankedDram}) {
    const std::vector<JobSpec> jobs =
        group_forks(mem == MemModelKind::Fixed ? 613 : 614, mem);
    const fs::path dir = dir_ / std::to_string(int(mem));
    WarmStore store((dir / "store").string());
    for (const JobSpec& j : jobs)
      store.put(j.parent_key, parent_by_hand(j));
    const std::uint64_t before = warmstore::warm_count();
    const auto results = run_worker_batches(dir, {jobs});
    EXPECT_EQ(warmstore::warm_count(), before) << "a stored parent re-warmed";
    expect_forks_match_alone(jobs, results);
  }
}

TEST_F(WarmStoreTest, GroupPassStartingPastRoundZeroMatchesForksAlone) {
  for (const MemModelKind mem :
       {MemModelKind::Fixed, MemModelKind::BankedDram}) {
    const std::vector<JobSpec> jobs = group_forks(
        mem == MemModelKind::Fixed ? 615 : 616, mem, /*first=*/3);
    ASSERT_EQ(jobs.front().fork_advance, 3 * kGroupStride);
    expect_forks_match_alone(
        jobs, run_worker_batches(dir_ / std::to_string(int(mem)), {jobs}));
  }
}

TEST_F(WarmStoreTest, GroupCutAcrossTwoBatchesMatchesForksAlone) {
  for (const MemModelKind mem :
       {MemModelKind::Fixed, MemModelKind::BankedDram}) {
    const std::vector<JobSpec> jobs =
        group_forks(mem == MemModelKind::Fixed ? 617 : 618, mem);
    // Job 7 is the middle fork of the third parent's group.
    ASSERT_EQ(jobs[6].parent_key, jobs[7].parent_key);
    const std::vector<JobSpec> head(jobs.begin(), jobs.begin() + 7);
    const std::vector<JobSpec> rest(jobs.begin() + 7, jobs.end());
    const std::uint64_t before = warmstore::warm_count();
    const auto results =
        run_worker_batches(dir_ / std::to_string(int(mem)), {head, rest});
    EXPECT_EQ(warmstore::warm_count() - before, 5u)
        << "the cut group's second batch re-warmed its parent";
    expect_forks_match_alone(jobs, results);
  }
}

TEST_F(WarmStoreTest, GroupEndingOutOfForkOrderStoresItsWarmedParent) {
  for (const MemModelKind mem :
       {MemModelKind::Fixed, MemModelKind::BankedDram}) {
    // One parent's three forks; fork 1's short window ends first.
    std::vector<JobSpec> jobs =
        group_forks(mem == MemModelKind::Fixed ? 619 : 620, mem);
    jobs.resize(3);
    ASSERT_EQ(jobs[2].parent_key, jobs[0].parent_key);
    jobs[1].measure = 200;
    ASSERT_LT(jobs[1].fork_advance + jobs[1].measure, jobs[0].measure);
    const fs::path dir = dir_ / std::to_string(int(mem));
    const std::uint64_t before = warmstore::warm_count();
    const auto results = run_worker_batches(dir, {jobs});
    EXPECT_EQ(warmstore::warm_count() - before, 1u);
    expect_forks_match_alone(jobs, results);
    // The batch's results are in delivery order: fork 1 came first.
    const auto delivered =
        worker::read_result_file((dir / "b0.mfr").string());
    ASSERT_EQ(delivered.size(), 3u);
    EXPECT_EQ(delivered.front().first, jobs[1].id);
    WarmStore store((dir / "store").string());
    const auto entry = store.lookup(jobs[0].parent_key);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(*entry == *parent_by_hand(jobs[0]));
  }
}

TEST(ForkGroups, ChainShapesMatchForksAlone) {
  // {fork_advance, measure} per fork.
  using Shape = std::vector<std::pair<Cycle, Cycle>>;
  const std::vector<std::pair<const char*, Shape>> shapes = {
      {"stride above measure", {{0, 600}, {900, 600}, {1800, 600}}},
      {"stride equal to measure", {{0, 600}, {600, 600}, {1200, 600}}},
      {"two forks at one advance",
       {{0, 600}, {400, 600}, {400, 600}, {800, 600}}},
      {"measures differ",
       {{200, 900}, {500, 200}, {1000, 700}, {1300, 300}}},
      {"advances out of order",
       {{800, 600}, {0, 600}, {1300, 300}, {400, 900}}},
  };
  const Workload w = *workloads::by_name("2W3");
  for (const bool dram : {false, true}) {
    SimConfig cfg = SimConfig::paper_default(w.num_cores(), 7);
    if (dram) {
      cfg.mem.memory_model = MemModelKind::BankedDram;
      cfg.mem.dram.far_base = Addr{1} << 40;
      cfg.mem.dram.far_bytes = std::uint64_t{1} << 40;
    }
    for (const char* name :
         {"icount", "flush-s30", "stall-s30", "mflush", "flush-ns"}) {
      const PolicySpec policy = *PolicySpec::parse(name);
      CmpSimulator parent(cfg, w, policy);
      parent.run(2'000);
      const auto bytes = std::make_shared<const std::vector<std::uint8_t>>(
          snapshot::capture(parent));
      for (const auto& [shape, windows] : shapes) {
        SCOPED_TRACE(std::string(name) + (dram ? " dram, " : " fixed, ") +
                     shape);
        std::vector<JobSpec> group;
        for (const auto& [advance, measure] : windows) {
          JobSpec j;
          j.snapshot = bytes;
          j.fork_advance = advance;
          j.measure = measure;
          group.push_back(j);
        }
        std::vector<RunResult> got(group.size());
        run_fork_group(group, [&](std::size_t k, RunResult r) {
          got.at(k) = std::move(r);
        });
        Cycle ran = 0;
        for (std::size_t k = 0; k < group.size(); ++k) {
          const RunResult alone = run_point_from_snapshot(
              *bytes, group[k].fork_advance, group[k].measure);
          EXPECT_TRUE(got[k].metrics == alone.metrics) << "fork " << k;
          EXPECT_EQ(got[k].workload, alone.workload);
          EXPECT_EQ(got[k].policy, alone.policy);
          ran += got[k].simulated_cycles;
        }
        EXPECT_EQ(ran, pass_cycles(group));
      }
    }
  }
}

TEST(ForkGroups, GroupEndsAtAnotherParentOrANonFork) {
  const auto fork = [](std::uint64_t key, Cycle advance) {
    JobSpec j;
    j.parent_key = key;
    j.fork_advance = advance;
    return j;
  };
  JobSpec full;  // neither a snapshot nor a parent
  JobSpec attached;  // a fork whose parent has no key
  attached.snapshot = std::make_shared<const std::vector<std::uint8_t>>();
  // A falling advance stays in the group: the pass sorts its boundaries.
  const std::vector<JobSpec> jobs = {
      fork(1, 0), fork(1, 0), fork(1, 5), fork(1, 2),
      fork(2, 0), full,       fork(1, 9), attached,
      attached,   fork(3, 1)};
  EXPECT_EQ(fork_group_end(jobs, 0), 4u);
  EXPECT_EQ(fork_group_end(jobs, 1), 4u);
  EXPECT_EQ(fork_group_end(jobs, 4), 5u);
  EXPECT_EQ(fork_group_end(jobs, 5), 6u);
  EXPECT_EQ(fork_group_end(jobs, 6), 7u);
  EXPECT_EQ(fork_group_end(jobs, 7), 8u);
  EXPECT_EQ(fork_group_end(jobs, 8), 9u);
  EXPECT_EQ(fork_group_end(jobs, 9), 10u);
}

}  // namespace
}  // namespace mflush
