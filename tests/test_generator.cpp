#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/generator.h"
#include "trace/instr.h"
#include "trace/spec2000.h"

namespace mflush {
namespace {

BenchmarkProfile test_profile() {
  return *spec2000::by_name("gzip");
}

TEST(Generator, DeterministicForSameSeed) {
  SyntheticTraceSource a(test_profile(), 42, 1024, 0);
  SyntheticTraceSource b(test_profile(), 42, 1024, 0);
  for (SeqNo s = 0; s < 5000; ++s) {
    const TraceInstr& x = a.at(s);
    const TraceInstr& y = b.at(s);
    ASSERT_EQ(x.pc, y.pc) << s;
    ASSERT_EQ(x.cls, y.cls) << s;
    ASSERT_EQ(x.eff_addr, y.eff_addr) << s;
    ASSERT_EQ(x.taken, y.taken) << s;
    ASSERT_EQ(x.dst, y.dst) << s;
  }
}

TEST(Generator, SeedsDiverge) {
  SyntheticTraceSource a(test_profile(), 1, 1024, 0);
  SyntheticTraceSource b(test_profile(), 2, 1024, 0);
  int diff = 0;
  for (SeqNo s = 0; s < 1000; ++s)
    if (a.at(s).eff_addr != b.at(s).eff_addr || a.at(s).pc != b.at(s).pc)
      ++diff;
  EXPECT_GT(diff, 100);
}

TEST(Generator, SpaceIdsAreDisjointAddressSpaces) {
  SyntheticTraceSource a(test_profile(), 1, 1024, 0);
  SyntheticTraceSource b(test_profile(), 1, 1024, 1);
  std::set<Addr> lines_a, lines_b;
  for (SeqNo s = 0; s < 5000; ++s) {
    if (a.at(s).is_memory()) lines_a.insert(a.at(s).eff_addr >> 6);
    if (b.at(s).is_memory()) lines_b.insert(b.at(s).eff_addr >> 6);
  }
  for (const Addr l : lines_a) EXPECT_EQ(lines_b.count(l), 0u);
}

TEST(Generator, RewindWithinWindowReproduces) {
  SyntheticTraceSource src(test_profile(), 7, 512, 0);
  std::vector<TraceInstr> first;
  for (SeqNo s = 0; s < 400; ++s) first.push_back(src.at(s));
  // Walk ahead, then re-read the same range (FLUSH re-fetch pattern).
  for (SeqNo s = 400; s < 500; ++s) (void)src.at(s);
  for (SeqNo s = 100; s < 400; ++s) {
    const TraceInstr& again = src.at(s);
    EXPECT_EQ(again.pc, first[s].pc);
    EXPECT_EQ(again.eff_addr, first[s].eff_addr);
    EXPECT_EQ(again.taken, first[s].taken);
  }
}

TEST(Generator, ClassIsStablePerPc) {
  SyntheticTraceSource src(test_profile(), 3, 2048, 0);
  std::map<Addr, InstrClass> seen;
  for (SeqNo s = 0; s < 30000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    const auto it = seen.find(i.pc);
    if (it == seen.end()) {
      seen.emplace(i.pc, i.cls);
    } else {
      ASSERT_EQ(it->second, i.cls) << "pc " << std::hex << i.pc;
    }
  }
  EXPECT_GT(seen.size(), 100u);  // the walk visits a real footprint
}

TEST(Generator, BranchTargetsAreStablePerPc) {
  SyntheticTraceSource src(test_profile(), 3, 2048, 0);
  std::map<Addr, Addr> targets;
  for (SeqNo s = 0; s < 30000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (i.cls == InstrClass::Branch && i.taken) {
      const auto it = targets.find(i.pc);
      if (it == targets.end()) {
        targets.emplace(i.pc, i.target);
      } else {
        ASSERT_EQ(it->second, i.target);
      }
    }
  }
  EXPECT_GT(targets.size(), 10u);
}

TEST(Generator, MixApproximatesProfile) {
  const auto p = test_profile();
  SyntheticTraceSource src(p, 5, 2048, 0);
  const SeqNo n = 100000;
  std::uint64_t loads = 0, stores = 0, branches = 0;
  for (SeqNo s = 0; s < n; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (i.cls == InstrClass::Load) ++loads;
    if (i.cls == InstrClass::Store) ++stores;
    if (i.cls == InstrClass::Branch) ++branches;
  }
  // Dynamic mix tracks the static mix loosely (hot loops bias it).
  EXPECT_NEAR(static_cast<double>(loads) / n, p.f_load, 0.10);
  EXPECT_NEAR(static_cast<double>(stores) / n, p.f_store, 0.08);
}

TEST(Generator, AddressesFallInDeclaredRegions) {
  SyntheticTraceSource src(test_profile(), 5, 2048, 0);
  const auto r = src.regions();
  for (SeqNo s = 0; s < 20000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    // Code stays inside the code region.
    ASSERT_GE(i.pc, r.code_base);
    ASSERT_LT(i.pc, r.code_base + static_cast<Addr>(r.code_lines) * 64);
  }
}

TEST(Generator, ControlOpsHaveConsistentTargets) {
  SyntheticTraceSource src(test_profile(), 11, 2048, 0);
  for (SeqNo s = 0; s < 20000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (i.cls == InstrClass::Branch) {
      if (!i.taken) { ASSERT_EQ(i.target, i.pc + 4); }
    }
    if (i.cls == InstrClass::Call || i.cls == InstrClass::Return) {
      ASSERT_TRUE(i.taken);
      ASSERT_NE(i.target, 0u);
    }
  }
}

TEST(Generator, ReturnsMatchCallSites) {
  // Returns must target (call pc + 4) of a prior call — shadow-stack
  // discipline. Track our own stack and compare.
  SyntheticTraceSource src(test_profile(), 13, 2048, 0);
  std::vector<Addr> stack;
  for (SeqNo s = 0; s < 50000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (i.cls == InstrClass::Call) {
      if (stack.size() < 64) stack.push_back(i.pc + 4);
    } else if (i.cls == InstrClass::Return) {
      if (!stack.empty()) {
        EXPECT_EQ(i.target, stack.back());
        stack.pop_back();
      }
    }
  }
}

TEST(Generator, LoadsHaveDestinations) {
  SyntheticTraceSource src(test_profile(), 17, 2048, 0);
  for (SeqNo s = 0; s < 5000; ++s) {
    const TraceInstr& i = src.at(s);
    if (i.cls == InstrClass::Load) {
      ASSERT_TRUE(i.has_dst());
      ASSERT_LT(i.dst, 32);  // loads write int registers
      ASSERT_NE(i.eff_addr, 0u);
    }
    if (i.cls == InstrClass::Store) {
      ASSERT_FALSE(i.has_dst());
      ASSERT_NE(i.src[0], kNoLogReg);
      ASSERT_NE(i.src[1], kNoLogReg);
    }
  }
}

TEST(Generator, FpOpsUseFpRegisters) {
  const auto p = *spec2000::by_name("swim");
  SyntheticTraceSource src(p, 19, 2048, 0);
  for (SeqNo s = 0; s < 10000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (is_fp(i.cls)) {
      ASSERT_GE(i.dst, 32);
      ASSERT_GE(i.src[0], 32);
    }
  }
}

TEST(Generator, PointerChaserCreatesLoadLoadDependencies) {
  const auto p = *spec2000::by_name("mcf");
  SyntheticTraceSource src(p, 23, 2048, 0);
  LogReg last_load_dst = kNoLogReg;
  std::uint64_t chases = 0, loads = 0;
  for (SeqNo s = 0; s < 50000; ++s) {
    const TraceInstr& i = src.at(s);
    src.retire_up_to(s > 1500 ? s - 1500 : 0);
    if (i.cls == InstrClass::Load) {
      ++loads;
      if (last_load_dst != kNoLogReg && i.src[0] == last_load_dst) ++chases;
      last_load_dst = i.dst;
    }
  }
  // mcf must exhibit a substantial chase fraction (profile: 0.45 across
  // both strands; the same-register check sees a fraction of that).
  EXPECT_GT(static_cast<double>(chases) / static_cast<double>(loads), 0.05);
}

TEST(Generator, RegionsAccessorIsConsistent) {
  const auto p = test_profile();
  SyntheticTraceSource src(p, 1, 1024, 5);
  const auto r = src.regions();
  EXPECT_EQ(r.hot_lines, p.normalized().hot_lines);
  EXPECT_EQ(r.l2_lines, p.normalized().l2_lines);
  EXPECT_EQ(r.code_lines, p.normalized().icache_lines);
  EXPECT_NE(r.hot_base, r.l2_base);
}

TEST(Generator, NameComesFromProfile) {
  SyntheticTraceSource src(test_profile(), 1, 1024, 0);
  EXPECT_STREQ(src.name(), "gzip");
}

/// The first `n` instructions of gzip's synthetic stream.
std::vector<TraceInstr> sample_trace(std::size_t n) {
  SyntheticTraceSource src(test_profile(), 3, 1024, 0);
  std::vector<TraceInstr> v;
  for (SeqNo s = 0; s < n; ++s) v.push_back(src.at(s));
  return v;
}

TEST(VectorSource, WrapsAround) {
  auto instrs = sample_trace(10);
  VectorTraceSource src(instrs, "wrap");
  for (SeqNo s = 0; s < 35; ++s)
    EXPECT_EQ(src.at(s).pc, instrs[s % 10].pc);
}

TEST(VectorSource, RejectsEmpty) {
  EXPECT_THROW(VectorTraceSource({}, "empty"), std::invalid_argument);
}

TEST(VectorSource, Name) {
  VectorTraceSource src(sample_trace(4), "myname");
  EXPECT_STREQ(src.name(), "myname");
  EXPECT_EQ(src.size(), 4u);
}

}  // namespace
}  // namespace mflush
