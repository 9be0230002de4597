#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/fetch_policy.h"
#include "pipeline/fu.h"
#include "pipeline/iq.h"
#include "pipeline/regfile.h"
#include "pipeline/rename.h"
#include "pipeline/rob.h"
#include "pipeline/uop.h"
#include "pipeline/wakeup.h"

namespace mflush {
namespace {

// ------------------------------------------------------------------- UopPool

TEST(UopPool, AllocRelease) {
  UopPool pool(4);
  const UopHandle h = pool.alloc();
  EXPECT_TRUE(pool[h].in_use);
  EXPECT_EQ(pool.live(), 1u);
  pool.release(h);
  EXPECT_FALSE(pool[h].in_use);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(UopPool, ReusedSlotsAreFresh) {
  UopPool pool(2);
  const UopHandle h = pool.alloc();
  pool[h].seq = 99;
  pool[h].completed = true;
  pool.release(h);
  const UopHandle h2 = pool.alloc();
  EXPECT_EQ(pool[h2].seq, 0u);
  EXPECT_FALSE(pool[h2].completed);
}

TEST(UopPool, GrowsBeyondInitialCapacity) {
  UopPool pool(2);
  const auto a = pool.alloc();
  const auto b = pool.alloc();
  const auto c = pool.alloc();  // grows
  EXPECT_TRUE(pool[c].in_use);
  EXPECT_EQ(pool.live(), 3u);
  (void)a;
  (void)b;
}

// ----------------------------------------------------------------------- Rob

TEST(Rob, FifoOrder) {
  Rob rob(4);
  rob.push_back(10);
  rob.push_back(11);
  rob.push_back(12);
  EXPECT_EQ(rob.front(), 10u);
  rob.pop_front();
  EXPECT_EQ(rob.front(), 11u);
  EXPECT_EQ(rob.back(), 12u);
}

TEST(Rob, PopBackForSquash) {
  Rob rob(4);
  rob.push_back(1);
  rob.push_back(2);
  rob.pop_back();
  EXPECT_EQ(rob.back(), 1u);
  EXPECT_EQ(rob.size(), 1u);
}

TEST(Rob, FullAndWrapAround) {
  Rob rob(3);
  rob.push_back(1);
  rob.push_back(2);
  rob.push_back(3);
  EXPECT_TRUE(rob.full());
  rob.pop_front();
  rob.push_back(4);  // wraps
  EXPECT_EQ(rob.front(), 2u);
  EXPECT_EQ(rob.back(), 4u);
  EXPECT_EQ(rob.at(0), 2u);
  EXPECT_EQ(rob.at(2), 4u);
}

// --------------------------------------------------------------- IssueQueue

TEST(IssueQueue, InsertRemove) {
  IssueQueue q(4);
  q.insert(5);
  q.insert(6);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.remove(5));
  EXPECT_FALSE(q.remove(5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(IssueQueue, PreservesAgeOrder) {
  IssueQueue q(8);
  for (UopHandle h : {3u, 1u, 4u, 1u + 4u}) q.insert(h);
  q.remove(4);
  ASSERT_EQ(q.entries().size(), 3u);
  EXPECT_EQ(q.entries()[0], 3u);
  EXPECT_EQ(q.entries()[1], 1u);
  EXPECT_EQ(q.entries()[2], 5u);
}

TEST(IssueQueue, FullAtCapacity) {
  IssueQueue q(2);
  q.insert(1);
  q.insert(2);
  EXPECT_TRUE(q.full());
}

TEST(IssueQueue, RemovingAnAbsentHandleReturnsFalse) {
  IssueQueue q(4);
  EXPECT_FALSE(q.remove(7));  // never inserted
  q.insert(7);
  q.insert(8);
  EXPECT_TRUE(q.remove(7));
  EXPECT_FALSE(q.remove(7));  // already removed
  EXPECT_FALSE(q.remove(9));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.full());
}

TEST(IssueQueue, KeepsAgeOrderAcrossChurn) {
  // Interleave inserts with removals from the front, middle and back for
  // many times the capacity, checking against a reference list.
  IssueQueue q(8);
  std::vector<UopHandle> ref;
  Xoshiro256 rng(42);
  UopHandle next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (!q.full() && (ref.empty() || rng.next_below(3) != 0)) {
      q.insert(next);
      ref.push_back(next++);
    } else {
      const auto i = static_cast<std::size_t>(rng.next_below(ref.size()));
      ASSERT_TRUE(q.remove(ref[i]));
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.entries(), ref) << "step " << step;
    ASSERT_EQ(q.size(), ref.size());
  }
}

TEST(IssueQueue, SaveWritesTheLiveEntriesInAgeOrder) {
  IssueQueue q(8);
  for (UopHandle h : {9u, 2u, 7u, 4u, 11u}) q.insert(h);
  q.remove(2);
  q.remove(11);
  q.insert(5);
  ArchiveWriter saved;
  saved.io(q);
  ArchiveWriter plain;
  plain.put_vec(std::vector<UopHandle>{9, 7, 4, 5});
  EXPECT_EQ(saved.bytes(), plain.bytes());

  IssueQueue back(8);
  ArchiveReader ar(saved.bytes());
  ar.io(back);
  EXPECT_EQ(back.entries(), (std::vector<UopHandle>{9, 7, 4, 5}));
  EXPECT_TRUE(back.remove(7));
  EXPECT_FALSE(back.remove(2));
}

TEST(IssueQueue, CountForThread) {
  UopPool pool(4);
  const auto a = pool.alloc();
  const auto b = pool.alloc();
  const auto c = pool.alloc();
  pool[a].tid = 0;
  pool[b].tid = 1;
  pool[c].tid = 0;
  IssueQueue q(8);
  q.insert(a);
  q.insert(b);
  q.insert(c);
  EXPECT_EQ(q.count_for(pool, 0), 2u);
  EXPECT_EQ(q.count_for(pool, 1), 1u);
}

// ------------------------------------------------------------ OperandWakeup

std::vector<UopHandle> ready_handles(const OperandWakeup& w,
                                     OperandWakeup::List list) {
  std::vector<UopHandle> out;
  for (const auto& r : w.ready(list)) out.push_back(r.h);
  return out;
}

constexpr std::uint32_t kNone = OperandWakeup::kNoReg;

TEST(OperandWakeup, WokenUopsJoinTheReadyListInEnqueueOrder) {
  OperandWakeup w(8, 4);
  w.enqueue(0, OperandWakeup::kInt, {3, kNone});
  w.enqueue(1, OperandWakeup::kInt, {kNone, kNone});  // ready at once
  w.enqueue(2, OperandWakeup::kInt, {3, 4});
  w.enqueue(3, OperandWakeup::kFp, {4, 4});  // both sources on one register
  EXPECT_EQ(ready_handles(w, OperandWakeup::kInt), (std::vector<UopHandle>{1}));
  w.wake(3);
  EXPECT_EQ(ready_handles(w, OperandWakeup::kInt),
            (std::vector<UopHandle>{0, 1}));
  EXPECT_TRUE(ready_handles(w, OperandWakeup::kFp).empty());
  w.wake(4);
  EXPECT_EQ(ready_handles(w, OperandWakeup::kInt),
            (std::vector<UopHandle>{0, 1, 2}));
  EXPECT_EQ(ready_handles(w, OperandWakeup::kFp), (std::vector<UopHandle>{3}));
  w.pop_front(OperandWakeup::kInt, 2);
  EXPECT_EQ(ready_handles(w, OperandWakeup::kInt), (std::vector<UopHandle>{2}));
  EXPECT_TRUE(w.any_ready());
}

TEST(OperandWakeup, RemovedUopsLeaveWaitListsAndReadyLists) {
  // Three waiters on register 5: unlink the middle one, then the head,
  // then drop a ready uop; a later wake must reach only the survivor.
  OperandWakeup w(8, 6);
  w.enqueue(0, OperandWakeup::kLoad, {5, kNone});
  w.enqueue(1, OperandWakeup::kLoad, {5, 6});
  w.enqueue(2, OperandWakeup::kLoad, {5, kNone});  // heads register 5's list
  w.enqueue(3, OperandWakeup::kLoad, {kNone, kNone});
  w.remove(1);
  w.remove(2);
  w.remove(3);
  w.remove(3);  // already gone: a no-op
  EXPECT_FALSE(w.any_ready());
  w.wake(6);  // uop 1 waited here too; it must not come back
  w.wake(5);
  EXPECT_EQ(ready_handles(w, OperandWakeup::kLoad),
            (std::vector<UopHandle>{0}));
  // A removed slot can be enqueued again (the pool reuses it).
  w.enqueue(1, OperandWakeup::kLoad, {7, kNone});
  w.wake(7);
  EXPECT_EQ(ready_handles(w, OperandWakeup::kLoad),
            (std::vector<UopHandle>{0, 1}));
}

TEST(OperandWakeup, ClearForgetsEverything) {
  OperandWakeup w(4, 2);
  w.enqueue(0, OperandWakeup::kInt, {kNone, kNone});
  w.enqueue(1, OperandWakeup::kInt, {2, kNone});
  w.clear();
  EXPECT_FALSE(w.any_ready());
  w.wake(2);
  EXPECT_FALSE(w.any_ready());
}

// ------------------------------------------------------------- icount_order

/// The reference: stable sort of ascending thread ids by icount.
std::array<ThreadId, kMaxContexts> reference_order(const CoreView& view) {
  std::array<ThreadId, kMaxContexts> order{};
  for (std::uint32_t i = 0; i < view.num_threads; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.begin() + view.num_threads,
                   [&view](ThreadId a, ThreadId b) {
                     return view.icount[a] < view.icount[b];
                   });
  return order;
}

void expect_matches_reference(const CoreView& view) {
  std::array<ThreadId, kMaxContexts> got{};
  icount_order(view, got);
  const auto want = reference_order(view);
  for (std::uint32_t i = 0; i < view.num_threads; ++i)
    ASSERT_EQ(got[i], want[i]) << "position " << i;
}

TEST(IcountOrder, MatchesStableSortExhaustivelyUpToFourThreads) {
  for (std::uint32_t n = 1; n <= 4; ++n) {
    std::uint32_t combos = 1;
    for (std::uint32_t i = 0; i < n; ++i) combos *= 4;
    for (std::uint32_t c = 0; c < combos; ++c) {
      CoreView view;
      view.num_threads = n;
      for (std::uint32_t t = 0, v = c; t < n; ++t, v /= 4) view.icount[t] = v % 4;
      expect_matches_reference(view);
    }
  }
}

TEST(IcountOrder, MatchesStableSortOnRandomEightThreadViews) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    CoreView view;
    view.num_threads = 8;
    // Narrow ranges force ties; wide ones exercise long insertion runs.
    const std::uint32_t range = trial % 2 == 0 ? 4 : 200;
    for (std::uint32_t t = 0; t < 8; ++t)
      view.icount[t] = static_cast<std::uint32_t>(rng.next_below(range));
    expect_matches_reference(view);
  }
}

// -------------------------------------------------------------- PhysRegFile

TEST(PhysRegFile, AllocClearsReady) {
  PhysRegFile rf(4);
  const PhysReg r = rf.alloc();
  EXPECT_FALSE(rf.ready(r));
  rf.set_ready(r);
  EXPECT_TRUE(rf.ready(r));
}

TEST(PhysRegFile, NoRegSentinelIsAlwaysReady) {
  PhysRegFile rf(4);
  EXPECT_TRUE(rf.ready(kNoPhysReg));
}

TEST(PhysRegFile, ExhaustionAndRelease) {
  PhysRegFile rf(2);
  const PhysReg a = rf.alloc();
  (void)rf.alloc();
  EXPECT_FALSE(rf.has_free());
  rf.release(a);
  EXPECT_TRUE(rf.has_free());
  EXPECT_EQ(rf.free_count(), 1u);
}

// ----------------------------------------------------------------- RenameMap

TEST(RenameMap, InitialMappingsAreReady) {
  PhysRegFile iregs(320), fregs(320);
  RenameMap map(iregs, fregs);
  for (LogReg r = 0; r < kNumLogicalRegs; ++r) {
    const PhysReg p = map.lookup(r);
    EXPECT_NE(p, kNoPhysReg);
    EXPECT_TRUE(RenameMap::is_fp_reg(r) ? fregs.ready(p) : iregs.ready(p));
  }
  // 32 int + 32 fp consumed.
  EXPECT_EQ(iregs.free_count(), 288u);
  EXPECT_EQ(fregs.free_count(), 288u);
}

TEST(RenameMap, RenameRedirectsLookups) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const PhysReg before = map.lookup(3);
  const auto ren = map.rename_dst(3);
  EXPECT_EQ(ren.previous, before);
  EXPECT_EQ(map.lookup(3), ren.fresh);
  EXPECT_NE(ren.fresh, before);
}

TEST(RenameMap, UnwindRestoresAndFrees) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const auto free_before = iregs.free_count();
  const auto ren = map.rename_dst(3);
  map.unwind(3, ren.fresh, ren.previous);
  EXPECT_EQ(map.lookup(3), ren.previous);
  EXPECT_EQ(iregs.free_count(), free_before);
}

TEST(RenameMap, CommitReleasesPrevious) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const auto free_before = iregs.free_count();
  const auto ren = map.rename_dst(3);
  map.commit_release(3, ren.previous);
  EXPECT_EQ(map.lookup(3), ren.fresh);
  EXPECT_EQ(iregs.free_count(), free_before);  // one taken, one released
}

TEST(RenameMap, NestedRenameUnwindInReverseOrder) {
  PhysRegFile iregs(64), fregs(64);
  RenameMap map(iregs, fregs);
  const PhysReg orig = map.lookup(7);
  const auto r1 = map.rename_dst(7);
  const auto r2 = map.rename_dst(7);
  map.unwind(7, r2.fresh, r2.previous);
  map.unwind(7, r1.fresh, r1.previous);
  EXPECT_EQ(map.lookup(7), orig);
}

TEST(RenameMap, FpIntSplit) {
  EXPECT_FALSE(RenameMap::is_fp_reg(0));
  EXPECT_FALSE(RenameMap::is_fp_reg(31));
  EXPECT_TRUE(RenameMap::is_fp_reg(32));
  EXPECT_TRUE(RenameMap::is_fp_reg(63));
}

// ------------------------------------------------------------------ FuBudget

TEST(FuBudget, CapsPerClass) {
  const CoreConfig cfg;  // 4 int, 3 fp, 2 ld/st
  FuBudget fu(cfg);
  fu.begin_cycle();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(fu.try_take(InstrClass::IntAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::IntAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::Branch));  // branches use int units
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(fu.try_take(InstrClass::FpAlu));
  EXPECT_FALSE(fu.try_take(InstrClass::FpMul));
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(fu.try_take(InstrClass::Load));
  EXPECT_FALSE(fu.try_take(InstrClass::Store));
}

TEST(FuBudget, BeginCycleResets) {
  const CoreConfig cfg;
  FuBudget fu(cfg);
  fu.begin_cycle();
  for (int i = 0; i < 4; ++i) (void)fu.try_take(InstrClass::IntAlu);
  fu.begin_cycle();
  EXPECT_TRUE(fu.try_take(InstrClass::IntAlu));
}

TEST(FuBudget, Latencies) {
  const CoreConfig cfg;
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::IntAlu), 1u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::IntMul), 3u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::FpAlu), 4u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::FpMul), 6u);
  EXPECT_EQ(FuBudget::latency(cfg, InstrClass::Branch), 1u);
}

}  // namespace
}  // namespace mflush
