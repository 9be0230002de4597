#include <gtest/gtest.h>

#include <memory>

#include "core/factory.h"
#include "core/icount.h"
#include "mem/hierarchy.h"
#include "pipeline/smt_core.h"
#include "trace/instr.h"

namespace mflush {
namespace {

TraceInstr alu(Addr pc, LogReg dst, LogReg s0 = kNoLogReg,
               LogReg s1 = kNoLogReg) {
  TraceInstr i;
  i.pc = pc;
  i.cls = InstrClass::IntAlu;
  i.dst = dst;
  i.src[0] = s0;
  i.src[1] = s1;
  return i;
}

TraceInstr load(Addr pc, LogReg dst, Addr addr, LogReg base = kNoLogReg) {
  TraceInstr i;
  i.pc = pc;
  i.cls = InstrClass::Load;
  i.dst = dst;
  i.src[0] = base;
  i.eff_addr = addr;
  return i;
}

/// A linear block of independent ALU ops walking sequential pcs.
std::vector<TraceInstr> alu_block(std::size_t n, Addr base_pc = 0x400000) {
  std::vector<TraceInstr> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(alu(base_pc + 4 * i, static_cast<LogReg>(i % 32)));
  return v;
}

struct CoreRig {
  explicit CoreRig(std::vector<std::vector<TraceInstr>> thread_traces,
                   PolicySpec policy = PolicySpec::icount(),
                   std::uint32_t num_cores = 1)
      : cfg(SimConfig::paper_default(num_cores)), mem(cfg) {
    std::vector<TraceSource*> raw;
    for (auto& t : thread_traces) {
      sources.push_back(
          std::make_unique<VectorTraceSource>(std::move(t), "test"));
      raw.push_back(sources.back().get());
    }
    core = std::make_unique<SmtCore>(0, cfg, mem, make_policy(policy, cfg),
                                     raw);
  }

  void run(Cycle cycles) {
    for (Cycle t = 0; t < cycles; ++t) {
      ++now;
      mem.tick(now);
      core->tick(now);
    }
  }

  SimConfig cfg;
  MemoryHierarchy mem;
  std::vector<std::unique_ptr<VectorTraceSource>> sources;
  std::unique_ptr<SmtCore> core;
  Cycle now = 0;
};

TEST(SmtCore, CommitsIndependentAluStream) {
  CoreRig rig({alu_block(64)}, PolicySpec::icount());
  rig.run(3000);  // cold I-cache lines fill serially (~272 cycles each)
  EXPECT_GT(rig.core->stats().committed[0], 500u);
  EXPECT_GE(rig.core->stats().fetched, rig.core->stats().committed[0]);
}

TEST(SmtCore, PipelineDepthMatchesElevenStages) {
  // A single independent instruction takes ~11 cycles fetch->commit:
  // 3 fetch + 2 decode + 2 rename + dispatch/queue + issue + execute +
  // commit. Measure the first commit cycle.
  CoreRig rig({alu_block(256)});
  Cycle first_commit = 0;
  for (Cycle t = 0; t < 800 && first_commit == 0; ++t) {
    rig.run(1);
    if (rig.core->stats().committed[0] > 0) first_commit = rig.now;
  }
  ASSERT_GT(first_commit, 0u);
  // Cold start pays the ITLB walk (300) plus an L2->memory fill (272)
  // before the 11-stage pipeline fills.
  EXPECT_GE(first_commit, 11u);
  EXPECT_LE(first_commit, 11u + 300u + 272u + 60u);
}

TEST(SmtCore, BothThreadsProgress) {
  CoreRig rig({alu_block(64, 0x400000), alu_block(64, 0x800000)});
  rig.run(1500);
  EXPECT_GT(rig.core->stats().committed[0], 50u);
  EXPECT_GT(rig.core->stats().committed[1], 50u);
}

TEST(SmtCore, DependentChainSerializes) {
  // A fully serial chain commits at ~1 IPC at best; measure it is much
  // slower than an independent stream over the same interval.
  std::vector<TraceInstr> chain;
  for (std::size_t i = 0; i < 512; ++i)
    chain.push_back(alu(0x400000 + 4 * i, 1, 1));  // r1 = f(r1)
  CoreRig serial({std::move(chain)});
  CoreRig parallel({alu_block(512)});
  serial.run(15000);
  parallel.run(15000);
  EXPECT_LT(serial.core->stats().committed[0] + 50,
            parallel.core->stats().committed[0]);
}

TEST(SmtCore, LoadLatencyGatesDependents) {
  // load r1 <- [cold line]; r2 = f(r1): the add cannot commit before the
  // load returns from memory (~272+ cycles).
  std::vector<TraceInstr> t;
  t.push_back(load(0x400000, 1, 0x10000000));
  t.push_back(alu(0x400004, 2, 1));
  for (std::size_t i = 0; i < 64; ++i)
    t.push_back(alu(0x400008 + 4 * i, 3));  // filler (independent)
  CoreRig rig({std::move(t)});
  rig.run(620);
  const auto committed_early = rig.core->stats().committed[0];
  rig.run(800);
  // After the miss resolves everything drains.
  EXPECT_GT(rig.core->stats().committed[0], committed_early + 32);
}

TEST(SmtCore, FlushAfterLoadSquashesAndRecovers) {
  // Build: one cold-miss load followed by many instructions. FLUSH-S30
  // must flush the thread, stall it, then resume and commit everything.
  std::vector<TraceInstr> t;
  t.push_back(load(0x400000, 1, 0x10000000));
  for (std::size_t i = 0; i < 256; ++i)
    t.push_back(alu(0x400004 + 4 * i, static_cast<LogReg>(2 + i % 8)));
  CoreRig rig({std::move(t)}, PolicySpec::flush_spec(30));
  rig.run(9000);
  const CoreStats& s = rig.core->stats();
  EXPECT_GE(s.policy_flush_events, 1u);
  EXPECT_GT(s.policy_flushed_total(), 0u);
  EXPECT_GT(s.committed[0], 200u);  // squashed work was re-fetched
}

TEST(SmtCore, IcountNeverFlushes) {
  std::vector<TraceInstr> t;
  t.push_back(load(0x400000, 1, 0x10000000));
  for (std::size_t i = 0; i < 128; ++i)
    t.push_back(alu(0x400004 + 4 * i, 2));
  CoreRig rig({std::move(t)}, PolicySpec::icount());
  rig.run(1800);
  EXPECT_EQ(rig.core->stats().policy_flush_events, 0u);
  EXPECT_EQ(rig.core->stats().policy_flushed_total(), 0u);
}

TEST(SmtCore, MispredictedBranchSquashesWrongPath) {
  // A taken branch the BTB has never seen: predicted not-taken (cold),
  // fetch runs down the wrong path, resolution squashes it.
  std::vector<TraceInstr> t;
  for (int rep = 0; rep < 8; ++rep) {
    const Addr base = 0x400000 + rep * 0x1000;
    t.push_back(alu(base, 1));
    TraceInstr br;
    br.pc = base + 4;
    br.cls = InstrClass::Branch;
    br.src[0] = 1;
    br.taken = true;
    br.target = base + 0x100;
    t.push_back(br);
    t.push_back(alu(base + 0x100, 2));
  }
  CoreRig rig({std::move(t)});
  rig.run(9000);
  const CoreStats& s = rig.core->stats();
  EXPECT_GT(s.mispredicts, 0u);
  std::uint64_t branch_squashed = 0;
  for (const auto c : s.branch_squashed_by_stage) branch_squashed += c;
  EXPECT_GT(branch_squashed, 0u);
  EXPECT_GT(s.committed[0], 20u);  // right path still commits
}

TEST(SmtCore, StallUntilLoadBlocksFetchWithoutSquash) {
  std::vector<TraceInstr> t;
  t.push_back(load(0x400000, 1, 0x10000000));
  for (std::size_t i = 0; i < 128; ++i)
    t.push_back(alu(0x400004 + 4 * i, 2));
  CoreRig rig({std::move(t)}, PolicySpec::stall(30));
  rig.run(8000);
  const CoreStats& s = rig.core->stats();
  EXPECT_EQ(s.policy_flushed_total(), 0u);  // STALL never squashes
  EXPECT_GT(s.committed[0], 100u);
}

TEST(SmtCore, PreissueCountsStayConsistent) {
  CoreRig rig({alu_block(128), alu_block(128, 0x800000)});
  for (int step = 0; step < 50; ++step) {
    rig.run(10);
    for (ThreadId t = 0; t < 2; ++t) {
      // preissue never exceeds front-end + all queue capacities.
      EXPECT_LE(rig.core->preissue_count(t),
                rig.cfg.core.fetch_width * 9 + 192 + 8);
    }
  }
}

TEST(SmtCore, EnergyLedgerMatchesSquashes) {
  std::vector<TraceInstr> t;
  t.push_back(load(0x400000, 1, 0x10000000));
  for (std::size_t i = 0; i < 256; ++i)
    t.push_back(alu(0x400004 + 4 * i, 2));
  CoreRig rig({std::move(t)}, PolicySpec::flush_spec(30));
  rig.run(9000);
  const CoreStats& s = rig.core->stats();
  std::uint64_t by_stage = 0;
  for (const auto c : s.policy_flushed_by_stage) by_stage += c;
  EXPECT_EQ(by_stage, s.policy_flushed_total());
  EXPECT_GT(by_stage, 0u);
}

TEST(SmtCore, ResetStatsZeroes) {
  CoreRig rig({alu_block(64)});
  rig.run(700);  // past the cold-start ITLB walk
  rig.core->reset_stats();
  EXPECT_EQ(rig.core->stats().committed_total(), 0u);
  EXPECT_EQ(rig.core->stats().fetched, 0u);
  rig.run(200);
  EXPECT_GT(rig.core->stats().committed_total(), 0u);
}

}  // namespace
}  // namespace mflush
