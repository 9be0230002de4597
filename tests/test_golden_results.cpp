#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.h"
#include "common/envelope.h"
#include "core/factory.h"
#include "sim/backend.h"
#include "sim/cmp.h"
#include "sim/snapshot.h"
#include "sim/workloads.h"

// Golden simulated results: a small fixed workload x policy x memory-model
// grid hashed into a few constants. Every speed pass over the kernel must
// leave these digests unchanged — a changed constant means the simulated
// machine changed, not just its host cost. The metrics digest is the same
// in both clock modes (decoupled skip and lockstep); the mid-run snapshot
// also carries the per-core sleep state, so it has one digest per mode.
//
// Regenerate (only for a deliberate change to simulated behaviour, stated
// as such in the change log) by running this test and copying the printed
// actual values.

namespace mflush {
namespace {

constexpr Cycle kWarm = 3'000;
constexpr Cycle kMeasure = 6'000;
constexpr std::uint64_t kSeed = 11;

// Metrics digests last regenerated when they began hashing the result
// archive body alone (without the worker protocol envelope); the same
// body digests hold at the commit before, so no metric moved.
constexpr std::uint64_t kFixedMetricsDigest = 0x1d1637496241d927;
constexpr std::uint64_t kDramMetricsDigest = 0x4987a7bc2368d8c4;
constexpr std::uint64_t kFlushNsMetricsDigest = 0x1f4b4541f613cf58;
// Snapshot digests last regenerated when they began hashing the snapshot
// body alone (without its envelope header and checksum), at snapshot
// format v6.
constexpr std::uint64_t kSnapshotDigestSkip = 0xf7a4a9c18fd375dd;
constexpr std::uint64_t kSnapshotDigestLockstep = 0x6dd0334ca7b5fa1c;

const char* const kWorkloads[] = {"2W3", "4W2", "8W3"};
const std::vector<const char*> kPolicies = {"icount", "flush-s30", "stall-s30",
                                            "mflush", "mflush-np"};

/// Paper-default chip; with `dram`, banked DRAM whose far tier is thread
/// 0's private address space (trace/generator.cpp salts each thread's
/// addresses at (space + 1) << 40).
SimConfig config_for(const Workload& wl, bool dram) {
  SimConfig cfg = SimConfig::paper_default(wl.num_cores(), kSeed);
  if (dram) {
    cfg.mem.memory_model = MemModelKind::BankedDram;
    cfg.mem.dram.far_base = Addr{1} << 40;
    cfg.mem.dram.far_bytes = std::uint64_t{1} << 40;
  }
  return cfg;
}

/// FNV-1a over the canonical archive encoding of every grid point's
/// measured-interval metrics (wall time zeroed: it is host, not model):
/// the body of a worker result archive, without its envelope, so a worker
/// protocol version bump does not move it.
std::uint64_t metrics_digest(bool dram, bool event_skip,
                             const std::vector<const char*>& policies =
                                 kPolicies) {
  std::vector<std::pair<std::uint32_t, RunResult>> results;
  for (const char* w : kWorkloads) {
    const Workload wl = *workloads::by_name(w);
    for (const char* p : policies) {
      const PolicySpec policy = *PolicySpec::parse(p);
      CmpSimulator sim(config_for(wl, dram), wl, policy);
      sim.set_event_skip(event_skip);
      sim.run(kWarm);
      sim.reset_stats();
      sim.run(kMeasure);
      RunResult r;
      r.workload = wl.name;
      r.policy = p;
      r.metrics = sim.metrics();
      r.simulated_cycles = kWarm + kMeasure;
      results.emplace_back(static_cast<std::uint32_t>(results.size()),
                           std::move(r));
    }
  }
  ArchiveWriter ar;
  ar.io(results);
  return fnv1a(ar.bytes());
}

/// FNV-1a over the body of one snapshot captured mid-run on the DRAM
/// chip, while loads are in flight to the far tier: the bytes between the
/// envelope header and its checksum, so neither a snapshot version bump
/// nor a change of checksum moves it.
std::uint64_t snapshot_digest(bool event_skip) {
  const Workload wl = *workloads::by_name("4W2");
  CmpSimulator sim(config_for(wl, /*dram=*/true), wl, PolicySpec::mflush());
  sim.set_event_skip(event_skip);
  sim.run(kWarm + kMeasure / 2);
  const std::vector<std::uint8_t> bytes = snapshot::capture(sim);
  return fnv1a(std::span(bytes).subspan(
      envelope::kHeaderBytes,
      bytes.size() - envelope::kHeaderBytes - sizeof(std::uint64_t)));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenResults, FixedMemoryGridMatchesRecordedDigest) {
  for (const bool skip : {true, false}) {
    const std::uint64_t d = metrics_digest(/*dram=*/false, skip);
    EXPECT_EQ(d, kFixedMetricsDigest)
        << "event_skip=" << skip << " actual " << hex(d);
  }
}

TEST(GoldenResults, DramFarTierGridMatchesRecordedDigest) {
  for (const bool skip : {true, false}) {
    const std::uint64_t d = metrics_digest(/*dram=*/true, skip);
    EXPECT_EQ(d, kDramMetricsDigest)
        << "event_skip=" << skip << " actual " << hex(d);
  }
}

// FLUSH-NS arms at the L2-miss callback rather than at issue, so it gets
// its own digest over the same workloads on fixed memory.
TEST(GoldenResults, FlushNonSpecGridMatchesRecordedDigest) {
  for (const bool skip : {true, false}) {
    const std::uint64_t d = metrics_digest(/*dram=*/false, skip, {"flush-ns"});
    EXPECT_EQ(d, kFlushNsMetricsDigest)
        << "event_skip=" << skip << " actual " << hex(d);
  }
}

TEST(GoldenResults, MidRunSnapshotBytesMatchRecordedDigest) {
  const std::uint64_t skip = snapshot_digest(true);
  const std::uint64_t lockstep = snapshot_digest(false);
  EXPECT_EQ(skip, kSnapshotDigestSkip) << "actual " << hex(skip);
  EXPECT_EQ(lockstep, kSnapshotDigestLockstep) << "actual " << hex(lockstep);
}

}  // namespace
}  // namespace mflush
