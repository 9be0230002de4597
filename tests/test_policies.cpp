#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/archive.h"
#include "core/factory.h"
#include "core/fetch_policy.h"
#include "core/icount.h"
#include "core/long_latency.h"
#include "core/mflush.h"

namespace mflush {
namespace {

/// Records the response actions a policy takes.
class MockControl final : public CoreControl {
 public:
  bool flush_after_load(std::uint64_t token) override {
    flushed.push_back(token);
    return accept_flush;
  }
  bool stall_until_load(std::uint64_t token) override {
    stalled.push_back(token);
    return accept_stall;
  }
  void set_fetch_gate(ThreadId tid, bool gated) override {
    gates.emplace_back(tid, gated);
  }

  std::vector<std::uint64_t> flushed;
  std::vector<std::uint64_t> stalled;
  std::vector<std::pair<ThreadId, bool>> gates;
  bool accept_flush = true;
  bool accept_stall = true;
};

using DetectionMoment = LongLatencyPolicy::DetectionMoment;

LongLatencyPolicy flush_s(Cycle trigger) {
  return {DetectionMoment::SpecDelay, trigger, ResponseAction::Flush};
}
LongLatencyPolicy flush_ns() {
  return {DetectionMoment::NonSpec, 0, ResponseAction::Flush};
}
LongLatencyPolicy stall_s(Cycle trigger) {
  return {DetectionMoment::SpecDelay, trigger, ResponseAction::Stall};
}

CoreView two_thread_view(std::uint32_t c0, std::uint32_t c1) {
  CoreView v;
  v.num_threads = 2;
  v.icount[0] = c0;
  v.icount[1] = c1;
  return v;
}

// -------------------------------------------------------------- icount_order

TEST(IcountOrder, FewestPreIssueFirst) {
  std::array<ThreadId, kMaxContexts> order{};
  icount_order(two_thread_view(10, 3), order);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST(IcountOrder, TieBreaksByThreadId) {
  std::array<ThreadId, kMaxContexts> order{};
  icount_order(two_thread_view(5, 5), order);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(IcountPolicy, NeverTriggersActions) {
  IcountPolicy p;
  MockControl ctrl;
  p.on_load_issued(0, 1, 0, 0);
  for (Cycle t = 0; t < 500; ++t) p.on_cycle(t, ctrl);
  EXPECT_TRUE(ctrl.flushed.empty());
  EXPECT_TRUE(ctrl.stalled.empty());
  EXPECT_TRUE(ctrl.gates.empty());
}

// ------------------------------------------------- FLUSH (LongLatencyPolicy)

TEST(FlushSpec, FiresExactlyAtTrigger) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 2, 100);
  p.on_cycle(129, ctrl);
  EXPECT_TRUE(ctrl.flushed.empty());
  p.on_cycle(130, ctrl);
  ASSERT_EQ(ctrl.flushed.size(), 1u);
  EXPECT_EQ(ctrl.flushed[0], 7u);
}

TEST(FlushSpec, NoRefireWhileThreadFlushed) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 0, 100);
  p.on_cycle(200, ctrl);
  p.on_cycle(201, ctrl);
  p.on_cycle(250, ctrl);
  EXPECT_EQ(ctrl.flushed.size(), 1u);
}

TEST(FlushSpec, ResolveUnblocksNextFlush) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 0, 100);
  p.on_cycle(140, ctrl);
  p.on_load_resolved(0, 7, 100, 400, true, false, 0);
  p.on_load_issued(0, 8, 0, 400);
  p.on_cycle(440, ctrl);
  ASSERT_EQ(ctrl.flushed.size(), 2u);
  EXPECT_EQ(ctrl.flushed[1], 8u);
}

TEST(FlushSpec, IndependentThreads) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 0, 100);
  p.on_load_issued(1, 8, 0, 100);
  p.on_cycle(140, ctrl);
  EXPECT_EQ(ctrl.flushed.size(), 2u);
}

TEST(FlushSpec, DropsVanishedLoads) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  ctrl.accept_flush = false;  // core says the load is gone
  p.on_load_issued(0, 7, 0, 100);
  p.on_cycle(140, ctrl);
  ctrl.flushed.clear();
  p.on_cycle(141, ctrl);
  EXPECT_TRUE(ctrl.flushed.empty());  // forgotten, not retried forever
}

TEST(FlushNonSpec, FiresOnlyOnMissDetection) {
  LongLatencyPolicy p = flush_ns();
  MockControl ctrl;
  p.on_load_issued(0, 7, 1, 100);
  p.on_cycle(500, ctrl);  // ages alone never trigger FL-NS
  EXPECT_TRUE(ctrl.flushed.empty());
  p.on_load_l2_miss(0, 7, 1, 520);
  p.on_cycle(521, ctrl);
  ASSERT_EQ(ctrl.flushed.size(), 1u);
}

TEST(FlushPolicy, FalseMissCounters) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 0, 100);
  p.on_cycle(140, ctrl);
  p.on_load_resolved(0, 7, 100, 160, true, true, 0);  // it was a hit!
  p.on_load_issued(0, 9, 0, 200);
  p.on_cycle(240, ctrl);
  p.on_load_resolved(0, 9, 200, 480, true, false, 0);  // real miss
  const auto c = p.counters();
  EXPECT_EQ(c.flushes_on_hit, 1u);
  EXPECT_EQ(c.flushes_on_miss, 1u);
}

TEST(FlushPolicy, Names) {
  EXPECT_STREQ(flush_s(30).name(), "FLUSH-S30");
  EXPECT_STREQ(flush_ns().name(), "FLUSH-NS");
  EXPECT_STREQ(stall_s(40).name(), "STALL-S40");
}

// ------------------------------------------------- STALL (LongLatencyPolicy)

TEST(StallPolicy, StallsInsteadOfFlushing) {
  LongLatencyPolicy p = stall_s(40);
  MockControl ctrl;
  p.on_load_issued(0, 3, 0, 10);
  p.on_cycle(49, ctrl);
  EXPECT_TRUE(ctrl.stalled.empty());
  p.on_cycle(50, ctrl);
  ASSERT_EQ(ctrl.stalled.size(), 1u);
  EXPECT_TRUE(ctrl.flushed.empty());
  EXPECT_EQ(p.counters().stall_events, 1u);
  p.on_load_resolved(0, 3, 10, 300, true, false, 0);
  const auto c = p.counters();  // a stall is no flush: nothing classified
  EXPECT_EQ(c.flushes_on_miss + c.flushes_on_hit + c.flushes_on_l1, 0u);
  ctrl.accept_stall = false;  // a vanished load is no response action
  p.on_load_issued(0, 4, 0, 400);
  p.on_cycle(440, ctrl);
  EXPECT_EQ(p.counters().stall_events, 1u);
}

TEST(StallPolicy, OneStallPerThreadUntilResolve) {
  LongLatencyPolicy p = stall_s(40);
  MockControl ctrl;
  p.on_load_issued(0, 3, 0, 10);
  p.on_load_issued(0, 4, 0, 12);
  p.on_cycle(60, ctrl);
  EXPECT_EQ(ctrl.stalled.size(), 1u);
  p.on_load_resolved(0, 3, 10, 70, true, false, 0);
  p.on_cycle(71, ctrl);
  EXPECT_EQ(ctrl.stalled.size(), 2u);  // the second load now stalls
  EXPECT_EQ(p.counters().stall_events, 2u);
}

// --------------------------------------------------------------- PolicySpec

TEST(PolicySpec, Labels) {
  EXPECT_EQ(PolicySpec::icount().label(), "ICOUNT");
  EXPECT_EQ(PolicySpec::flush_spec(30).label(), "FLUSH-S30");
  EXPECT_EQ(PolicySpec::flush_spec(100).label(), "FLUSH-S100");
  EXPECT_EQ(PolicySpec::flush_ns().label(), "FLUSH-NS");
  EXPECT_EQ(PolicySpec::stall(50).label(), "STALL-S50");
  EXPECT_EQ(PolicySpec::mflush().label(), "MFLUSH");
}

TEST(PolicySpec, ParseRoundTrip) {
  PolicySpec history_np =
      PolicySpec::mflush_history(4, PolicySpec::McRegAgg::Avg);
  history_np.preventive = false;
  for (const auto& spec :
       {PolicySpec::icount(), PolicySpec::flush_spec(30),
        PolicySpec::flush_spec(150), PolicySpec::flush_ns(),
        PolicySpec::stall(40), PolicySpec::mflush(),
        PolicySpec::mflush_no_preventive(),
        PolicySpec::mflush_history(4, PolicySpec::McRegAgg::Avg),
        PolicySpec::mflush_history(8, PolicySpec::McRegAgg::Max),
        PolicySpec::mflush_history(2, PolicySpec::McRegAgg::Last),
        history_np}) {
    const auto parsed = PolicySpec::parse(spec.label());
    ASSERT_TRUE(parsed.has_value()) << spec.label();
    EXPECT_EQ(*parsed, spec);
  }
}

TEST(PolicySpec, ParseIsCaseInsensitive) {
  EXPECT_EQ(*PolicySpec::parse("IcOuNt"), PolicySpec::icount());
  EXPECT_EQ(*PolicySpec::parse("flush-s30"), PolicySpec::flush_spec(30));
}

TEST(PolicySpec, ParseRejectsGarbage) {
  EXPECT_FALSE(PolicySpec::parse("").has_value());
  EXPECT_FALSE(PolicySpec::parse("flush").has_value());
  EXPECT_FALSE(PolicySpec::parse("flush-s").has_value());
  EXPECT_FALSE(PolicySpec::parse("flush-s0").has_value());
  EXPECT_FALSE(PolicySpec::parse("flush-sXX").has_value());
  EXPECT_FALSE(PolicySpec::parse("superpolicy").has_value());
  // A history depth beyond 2^32 - 1 would wrap (2^32 + 4 to MFLUSH-H4).
  EXPECT_FALSE(PolicySpec::parse("mflush-h4294967300").has_value());
  EXPECT_FALSE(PolicySpec::parse("mflush-h0").has_value());
}

TEST(Factory, BuildsEveryKind) {
  const SimConfig cfg = SimConfig::paper_default(4);
  EXPECT_STREQ(make_policy(PolicySpec::icount(), cfg)->name(), "ICOUNT");
  EXPECT_STREQ(make_policy(PolicySpec::flush_spec(30), cfg)->name(),
               "FLUSH-S30");
  EXPECT_STREQ(make_policy(PolicySpec::flush_ns(), cfg)->name(), "FLUSH-NS");
  EXPECT_STREQ(make_policy(PolicySpec::stall(30), cfg)->name(), "STALL-S30");
  EXPECT_STREQ(make_policy(PolicySpec::mflush(), cfg)->name(), "MFLUSH");
}

// ------------------------------------------------- quiescence horizons

/// The horizon contract the decoupled clock and the core's heartbeat both
/// rely on: every on_cycle strictly before quiescent_until(now) must be an
/// exact no-op — no response actions AND no state or counter change
/// (checked by comparing serialized policy state before/after).
void expect_noop_through_horizon(FetchPolicy& p, Cycle now,
                                 Cycle probe_limit = 512) {
  const Cycle h = p.quiescent_until(now);
  ASSERT_GT(h, now) << "horizon must be in the future";
  if (h == now + 1) return;  // not quiescent: nothing to probe
  ArchiveWriter before;
  p.save_state(before);
  MockControl ctrl;
  const Cycle stop =
      h == kNeverCycle ? now + probe_limit : std::min(h - 1, now + probe_limit);
  for (Cycle t = now + 1; t <= stop; ++t) p.on_cycle(t, ctrl);
  EXPECT_TRUE(ctrl.flushed.empty()) << "flush inside quiescent window";
  EXPECT_TRUE(ctrl.stalled.empty()) << "stall inside quiescent window";
  EXPECT_TRUE(ctrl.gates.empty()) << "gate change inside quiescent window";
  ArchiveWriter after;
  p.save_state(after);
  EXPECT_EQ(before.bytes(), after.bytes())
      << "policy state changed inside its quiescent window";
}

TEST(QuiescentUntil, PriorityPoliciesAreForeverQuiescent) {
  IcountPolicy p;
  EXPECT_EQ(p.quiescent_until(1000), kNeverCycle);
}

TEST(QuiescentUntil, FlushSpecHorizonIsTheTriggerDeadline) {
  LongLatencyPolicy p = flush_s(30);
  p.on_load_issued(0, 7, 2, 100);
  EXPECT_EQ(p.quiescent_until(110), 130u);  // fires at issue + trigger
  expect_noop_through_horizon(p, 110);
  MockControl ctrl;
  p.on_cycle(130, ctrl);  // and it really does act at the horizon
  EXPECT_EQ(ctrl.flushed.size(), 1u);
}

TEST(QuiescentUntil, FlushSpecFlushedThreadWaitsOnCallback) {
  LongLatencyPolicy p = flush_s(30);
  MockControl ctrl;
  p.on_load_issued(0, 7, 2, 100);
  p.on_cycle(130, ctrl);  // flush fires; thread now waits for the load
  EXPECT_EQ(p.quiescent_until(130), kNeverCycle);
  expect_noop_through_horizon(p, 130);
}

TEST(QuiescentUntil, FlushNonSpecArmsOnMissDetection) {
  LongLatencyPolicy p = flush_ns();
  p.on_load_issued(0, 7, 1, 100);
  EXPECT_EQ(p.quiescent_until(200), kNeverCycle);  // age never triggers
  expect_noop_through_horizon(p, 200);
  p.on_load_l2_miss(0, 7, 1, 220);
  EXPECT_EQ(p.quiescent_until(220), 221u);  // armed: fires next heartbeat
}

TEST(QuiescentUntil, StallHorizonIsTheTriggerDeadline) {
  LongLatencyPolicy p = stall_s(40);
  p.on_load_issued(1, 9, 0, 500);
  EXPECT_EQ(p.quiescent_until(510), 540u);
  expect_noop_through_horizon(p, 510);
  MockControl ctrl;
  p.on_cycle(540, ctrl);
  EXPECT_EQ(ctrl.stalled.size(), 1u);
}

TEST(QuiescentUntil, MflushHorizonCoversBarrierAndSuspicion) {
  MflushConfig cfg;  // min 22, max 272, mt 0 -> preventive threshold 22
  MflushPolicy p(cfg);
  p.on_load_issued(0, 7, 2, 100);
  // Not yet on the L2 path: the load does not participate in on_cycle.
  EXPECT_EQ(p.quiescent_until(105), kNeverCycle);
  p.on_load_l2_path(0, 7, 2, 103);
  // Barrier = MCReg(22) + 11 = 33 clamped to [22, 272] -> deadline 133,
  // firing at 134; suspicion crosses at issue + 22 + 1 = 123 (earlier).
  EXPECT_EQ(p.quiescent_until(105), 123u);
  expect_noop_through_horizon(p, 105);
}

TEST(QuiescentUntil, MflushArmedGateNeverQuiescent) {
  MflushConfig cfg;
  MflushPolicy p(cfg);
  MockControl ctrl;
  p.on_load_issued(0, 7, 2, 100);
  p.on_load_l2_path(0, 7, 2, 103);
  p.on_cycle(130, ctrl);  // suspicious (age > 22): gate armed
  ASSERT_FALSE(ctrl.gates.empty());
  EXPECT_EQ(p.quiescent_until(130), 131u);  // gate_cycles accrues per tick
}

TEST(Factory, MflushGetsTopologyDerivedMT) {
  const SimConfig cfg = SimConfig::paper_default(4);
  auto p = make_policy(PolicySpec::mflush(), cfg);
  const auto* mf = dynamic_cast<const MflushPolicy*>(p.get());
  ASSERT_NE(mf, nullptr);
  EXPECT_EQ(mf->config().mt, 57u);         // (4+15)*(4-1)
  EXPECT_EQ(mf->config().min_latency, 22u);
  EXPECT_EQ(mf->config().max_latency, 272u);
  EXPECT_EQ(mf->config().num_banks, 4u);
}

}  // namespace
}  // namespace mflush
