#include "pipeline/smt_core.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace mflush {

SmtCore::SmtCore(CoreId id, const SimConfig& cfg, MemoryHierarchy& mem,
                 std::unique_ptr<FetchPolicy> policy,
                 std::vector<TraceSource*> traces)
    : id_(id),
      cfg_(cfg),
      fe_depth_(cfg.core.fetch_stages + cfg.core.decode_stages +
                cfg.core.rename_stages),
      fe_cap_(static_cast<std::size_t>(cfg.core.fetch_width) *
              (fe_depth_ + 2)),
      mem_(mem),
      policy_(std::move(policy)),
      traces_(std::move(traces)),
      branch_(cfg.core),
      bbdict_(derive_seed(cfg.seed, 0x62626469 /*"bbdi"*/, id)),
      pool_(static_cast<std::size_t>(traces_.size()) *
            (cfg.core.rob_entries + 16 * cfg.core.fetch_width)),
      int_regs_(cfg.core.int_phys_regs),
      fp_regs_(cfg.core.fp_phys_regs),
      iq_int_(cfg.core.int_queue_entries),
      iq_fp_(cfg.core.fp_queue_entries),
      iq_mem_(cfg.core.mem_queue_entries),
      fu_(cfg.core),
      wakeup_(cfg.core.int_phys_regs + cfg.core.fp_phys_regs,
              pool_.slots()) {
  assert(policy_ != nullptr);
  assert(!traces_.empty() && traces_.size() <= kMaxContexts);
  const auto n = traces_.size();
  rename_.reserve(n);
  rob_.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    rename_.emplace_back(int_regs_, fp_regs_);
    rob_.emplace_back(cfg.core.rob_entries);
  }
  frontend_.resize(n);
  fstate_.resize(n);
  preissue_.assign(n, 0);
  inflight_ctrl_.assign(n, 0);
  inflight_dmiss_.assign(n, 0);
  scratch_due_.reserve(128);
  scratch_ready_.reserve(128);
  lsq_unissued_.reserve(cfg.core.mem_queue_entries);
}

IssueQueue& SmtCore::queue_for(InstrClass cls) noexcept {
  if (is_memory(cls)) return iq_mem_;
  if (is_fp(cls)) return iq_fp_;
  return iq_int_;
}

PipeStage SmtCore::occupancy_stage(const MicroOp& u, Cycle now) const {
  switch (u.stage) {
    case PipeStage::Fetch: {
      // Front-end delay line: classify by age.
      const Cycle age = now - u.fetch_cycle;
      if (age < cfg_.core.fetch_stages) return PipeStage::Fetch;
      if (age < cfg_.core.fetch_stages + cfg_.core.decode_stages)
        return PipeStage::Decode;
      return PipeStage::Rename;
    }
    case PipeStage::Queue:
      return u.issued
                 ? (u.completed ? PipeStage::RegWrite : PipeStage::Execute)
                 : PipeStage::Queue;
    default:
      return u.stage;
  }
}

void SmtCore::tick(Cycle now) {
  now_ = now;
  ++stats_.cycles;
  if (all_threads_stalled()) {
    // Every pipeline stage would no-op; only the policy heartbeat runs
    // (it may gate/ungate, but cannot clear a hard block — only a memory
    // completion can, and none arrived this cycle).
    policy_heartbeat(now);
    return;
  }
  fu_.begin_cycle();
  do_memory_completions(now);
  do_commit(now);
  do_writeback(now);
#ifndef NDEBUG
  check_ready_lists();
#endif
  do_issue(now);
  do_dispatch(now);
  policy_heartbeat(now);
  do_fetch(now);
#ifndef NDEBUG
  check_ready_lists();
#endif
}

void SmtCore::policy_heartbeat(Cycle now) {
  // Sound by FetchPolicy::quiescent_until's contract: with no callback
  // since the last run, the policy's state is as that run left it, and
  // on_cycle is an exact no-op before the horizon it implies. The horizon
  // is computed on the first tick without a callback (asking as of the
  // previous cycle, so a horizon of `now` means "run now"), not after
  // every run: while callbacks arrive every cycle it is never needed.
  if (!policy_dirty_) {
    if (policy_wake_ == kNoHorizon)
      policy_wake_ = policy_->quiescent_until(now - 1);
    if (now < policy_wake_) {
#ifndef NDEBUG
      check_skipped_heartbeat(now);
#endif
      return;
    }
  }
  policy_->on_cycle(now, *this);
  policy_dirty_ = false;
  policy_wake_ = kNoHorizon;
}

bool SmtCore::all_threads_stalled() const {
  // Early-exit precondition: pipeline fully drained, every context
  // hard-blocked (I-cache wait or policy stall — states only a memory
  // completion can clear), and the hierarchy delivered nothing this cycle.
  if (exec_live_ != 0) return false;
  if (mem_.has_events(id_)) return false;
  for (ThreadId t = 0; t < fstate_.size(); ++t) {
    if (!fstate_[t].hard_blocked()) return false;
    if (!frontend_[t].empty() || !rob_[t].empty()) return false;
  }
  return true;
}

bool SmtCore::sources_ready(const MicroOp& u) const noexcept {
  for (int i = 0; i < 2; ++i) {
    if (u.src_phys[i] == kNoPhysReg) continue;
    const bool ready = RenameMap::is_fp_reg(u.ins.src[i])
                           ? fp_regs_.ready(u.src_phys[i])
                           : int_regs_.ready(u.src_phys[i]);
    if (!ready) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// operand wakeup
// ---------------------------------------------------------------------------

void SmtCore::enqueue_for_wakeup(UopHandle h) {
  const MicroOp& u = pool_[h];
  std::array<std::uint32_t, 2> waits{OperandWakeup::kNoReg,
                                     OperandWakeup::kNoReg};
  for (int i = 0; i < 2; ++i) {
    const PhysReg r = u.src_phys[i];
    if (r == kNoPhysReg) continue;
    if (RenameMap::is_fp_reg(u.ins.src[i])) {
      if (!fp_regs_.ready(r)) waits[i] = int_regs_.size() + r;
    } else if (!int_regs_.ready(r)) {
      waits[i] = r;
    }
  }
  const auto list = is_memory(u.ins.cls) ? OperandWakeup::kLoad
                    : is_fp(u.ins.cls)   ? OperandWakeup::kFp
                                         : OperandWakeup::kInt;
  wakeup_.enqueue(h, list, waits);
}

void SmtCore::write_reg(LogReg dst, PhysReg r) {
  if (RenameMap::is_fp_reg(dst)) {
    fp_regs_.set_ready(r);
    wakeup_.wake(int_regs_.size() + r);
  } else {
    int_regs_.set_ready(r);
    wakeup_.wake(r);
  }
}

void SmtCore::rebuild_derived_state() {
  // Stamps only order candidates within one queue, so re-entering each
  // queue's uops in its saved age order reproduces the issue order.
  wakeup_.clear();
  for (const IssueQueue* q : {&iq_int_, &iq_fp_})
    for (const UopHandle h : q->entries()) enqueue_for_wakeup(h);
  for (const UopHandle h : lsq_unissued_) enqueue_for_wakeup(h);
  policy_dirty_ = true;
}

std::vector<UopHandle> SmtCore::ready_uops(const IssueQueue& q) const {
  const auto list = &q == &iq_int_  ? OperandWakeup::kInt
                    : &q == &iq_fp_ ? OperandWakeup::kFp
                                    : OperandWakeup::kLoad;
  std::vector<UopHandle> out;
  for (const OperandWakeup::Ready& r : wakeup_.ready(list)) out.push_back(r.h);
  return out;
}

#ifndef NDEBUG
namespace {
/// Any response action on a skipped heartbeat breaks the horizon contract.
class NoActionControl final : public CoreControl {
 public:
  bool flush_after_load(std::uint64_t) override { return fail(); }
  bool stall_until_load(std::uint64_t) override { return fail(); }
  void set_fetch_gate(ThreadId, bool) override { fail(); }

 private:
  static bool fail() {
    assert(false && "policy acted inside its quiescent horizon");
    return false;
  }
};
}  // namespace

void SmtCore::check_skipped_heartbeat(Cycle now) {
  // The reference path: run the on_cycle the heartbeat skips and require
  // the exact no-op quiescent_until promised (no action, same state bytes).
  ArchiveWriter before;
  policy_->save_state(before);
  NoActionControl ctrl;
  policy_->on_cycle(now, ctrl);
  ArchiveWriter after;
  policy_->save_state(after);
  assert(before.bytes() == after.bytes() &&
         "policy state changed inside its quiescent horizon");
}

void SmtCore::check_ready_lists() const {
  for (const IssueQueue* q : {&iq_int_, &iq_fp_, &iq_mem_}) {
    std::vector<UopHandle> want;
    for (const UopHandle h : q->entries()) {
      const MicroOp& u = pool_[h];
      if (!u.issued && !u.is_store() && sources_ready(u)) want.push_back(h);
    }
    assert(ready_uops(*q) == want && "ready list diverged from a rescan");
  }
}
#endif

Cycle SmtCore::next_local_event(Cycle now) const {
  if (exec_live_ != 0) return now + 1;  // a local completion writes back soon
  for (ThreadId t = 0; t < fstate_.size(); ++t)
    if (!fstate_[t].hard_blocked()) return now + 1;  // fetch could run
  if (mem_.has_events(id_)) return now + 1;  // undrained rendezvous signal
  Cycle horizon = policy_->quiescent_until(now);
  if (horizon <= now + 1) return now + 1;
  // Dispatch heads: a non-empty front-end is a no-op only while its head
  // stays blocked — too young (dispatchable at a known cycle: a horizon),
  // or stuck on ROB/IQ/register-file capacity, all frozen until a memory
  // completion. advance_idle replays the per-cycle blocker counters for
  // the skipped window, so sleeping here stays bit-identical. The check
  // mirrors do_dispatch's order exactly.
  for (ThreadId t = 0; t < frontend_.size(); ++t) {
    if (frontend_[t].empty()) continue;
    const MicroOp& u = pool_[frontend_[t].front()];
    const Cycle dispatchable_at = u.fetch_cycle + fe_depth_;
    if (now < dispatchable_at) {
      horizon = std::min(horizon, dispatchable_at);
      continue;
    }
    if (rob_[t].full()) continue;
    if (queue_for(u.ins.cls).full()) continue;
    if (u.ins.has_dst() && !rename_[t].can_rename(u.ins.dst)) continue;
    return now + 1;  // the head would dispatch
  }
  // Commit heads: an uncompleted non-store head waits on memory (local
  // completions are excluded by exec_live_ == 0); a store head retires the
  // moment its sources are ready, and with nothing executing locally,
  // readiness can only change via a memory completion.
  for (ThreadId t = 0; t < rob_.size(); ++t) {
    if (rob_[t].empty()) continue;
    const MicroOp& u = pool_[rob_[t].front()];
    if (u.is_store()) {
      if (sources_ready(u)) return now + 1;  // would retire this cycle
    } else if (u.completed) {
      return now + 1;  // would commit this cycle
    }
  }
  // Issue: every queued-but-unissued uop must be waiting on a frozen
  // source register, i.e. no ready list holds a candidate.
  if (wakeup_.any_ready()) return now + 1;
  return horizon;
}

void SmtCore::advance_idle(Cycle from, Cycle cycles) noexcept {
  stats_.cycles += cycles;
  // Replay the dispatch-stage blocker diagnosis the skipped ticks would
  // have recorded. The blocking state is frozen while asleep, so the
  // classification recomputed here matches every skipped cycle; the only
  // time-dependent class — "too young" — holds for the whole window
  // because next_local_event capped the wake horizon at the head's
  // dispatchable cycle.
  for (ThreadId t = 0; t < frontend_.size(); ++t) {
    if (frontend_[t].empty()) continue;
    const MicroOp& u = pool_[frontend_[t].front()];
    if (u.fetch_cycle + fe_depth_ > from) {
      stats_.dispatch_blocked_young += cycles;
    } else if (rob_[t].full()) {
      stats_.dispatch_blocked_rob += cycles;
    } else {
      const IssueQueue& q = queue_for(u.ins.cls);
      assert(q.full() ||
             (u.ins.has_dst() && !rename_[t].can_rename(u.ins.dst)));
      if (&q == &iq_int_ && q.full())
        stats_.dispatch_blocked_iq_int += cycles;
      else if (&q == &iq_fp_ && q.full())
        stats_.dispatch_blocked_iq_fp += cycles;
      else if (&q == &iq_mem_ && q.full())
        stats_.dispatch_blocked_iq_mem += cycles;
      else
        stats_.dispatch_blocked_regs += cycles;
    }
  }
}

// ---------------------------------------------------------------------------
// memory completions
// ---------------------------------------------------------------------------

void SmtCore::do_memory_completions(Cycle now) {
  // Policy detection-moment events first (they may concern loads that
  // complete this very cycle; completion handling below supersedes them).
  for (const L2PathEvent& e : mem_.l2_events(id_)) {
    ++inflight_dmiss_[e.tid];  // L1DMISSCOUNT metric
    policy_->on_load_l2_path(e.tid, e.token, e.bank, e.cycle);
    policy_dirty_ = true;
  }
  mem_.l2_events(id_).clear();
  for (const L2PathEvent& e : mem_.l2_miss_events(id_)) {
    policy_->on_load_l2_miss(e.tid, e.token, e.bank, e.cycle);
    policy_dirty_ = true;
  }
  mem_.l2_miss_events(id_).clear();

  for (const MemCompletion& c : mem_.completions(id_)) {
    if (c.kind == MemKind::IFetch) {
      ThreadFetchState& fs = fstate_[c.tid];
      if (fs.icache_wait && fs.icache_token == c.token) {
        fs.icache_wait = false;
        fs.icache_token = 0;
      }
      continue;
    }
    assert(c.kind == MemKind::Load);
    if (c.l2_accessed && inflight_dmiss_[c.tid] > 0)
      --inflight_dmiss_[c.tid];
    policy_->on_load_resolved(c.tid, c.token, c.issue_cycle, now,
                              c.l2_accessed, c.l2_hit, c.l2_bank);
    policy_dirty_ = true;
    // Release any fetch stall waiting on this load (FLUSH/STALL response).
    ThreadFetchState& fs = fstate_[c.tid];
    if (!fs.stall_tokens.empty()) {
      std::erase(fs.stall_tokens, c.token);
    }
    const auto it = load_by_token_.find(c.token);
    if (it == load_by_token_.end()) continue;  // squashed while in flight
    const UopHandle h = it->second;
    load_by_token_.erase(it);
    MicroOp& u = pool_[h];
    u.completed = true;
    u.ready_at = now;
    if (u.dst_phys != kNoPhysReg) write_reg(u.ins.dst, u.dst_phys);
    u.mem_token = 0;
    iq_mem_.remove(h);  // frees the LSQ entry
  }
  mem_.completions(id_).clear();
}

// ---------------------------------------------------------------------------
// commit
// ---------------------------------------------------------------------------

void SmtCore::do_commit(Cycle now) {
  for (ThreadId t = 0; t < rob_.size(); ++t) {
    std::uint32_t width = cfg_.core.commit_width;
    while (width > 0 && !rob_[t].empty()) {
      const UopHandle h = rob_[t].front();
      MicroOp& u = pool_[h];
      assert(!u.wrong_path && "wrong-path uop reached commit");
      if (u.is_store()) {
        // Stores retire by writing to memory: they need ready sources and
        // a load/store port this cycle.
        if (!sources_ready(u) || !fu_.try_take(InstrClass::Store)) break;
        mem_.request_store(id_, t, u.ins.eff_addr, now);
        iq_mem_.remove(h);
        assert(preissue_[t] > 0);
        --preissue_[t];
      } else if (!u.completed) {
        break;  // in-order commit
      }
      if (u.dst_phys != kNoPhysReg)
        rename_[t].commit_release(u.ins.dst, u.prev_dst_phys);
      ++stats_.committed[t];
      traces_[t]->retire_up_to(u.seq + 1);
      rob_[t].pop_front();
      pool_.release(h);
      --width;
    }
  }
}

// ---------------------------------------------------------------------------
// writeback / branch resolution
// ---------------------------------------------------------------------------

void SmtCore::do_writeback(Cycle now) {
  // Pop this cycle's wheel bucket instead of scanning every in-flight uop.
  // Entries whose uop was squashed (and possibly re-allocated) since
  // scheduling are stale: the generation check discards them — their
  // exec_live_ share was already released at squash time.
  scratch_due_.clear();
  exec_wheel_.pop_due(now, scratch_due_);
  scratch_ready_.clear();
  for (const ExecEntry& e : scratch_due_) {
    const MicroOp& u = pool_[e.h];
    if (pool_.generation(e.h) != e.gen || !u.in_use || !u.issued ||
        u.completed)
      continue;
    scratch_ready_.push_back(e.h);
  }
  if (scratch_ready_.empty()) return;

  // Resolve oldest-first per thread so an older mispredicted branch squashes
  // younger same-cycle completions before they act.
  std::sort(scratch_ready_.begin(), scratch_ready_.end(),
            [this](UopHandle a, UopHandle b) {
              const MicroOp& ua = pool_[a];
              const MicroOp& ub = pool_[b];
              if (ua.tid != ub.tid) return ua.tid < ub.tid;
              return ua.local_order < ub.local_order;
            });

  for (const UopHandle h : scratch_ready_) {
    MicroOp& u = pool_[h];
    if (!u.in_use || u.completed || !u.issued) continue;  // squashed above
    u.completed = true;
    if (u.dst_phys != kNoPhysReg) write_reg(u.ins.dst, u.dst_phys);
    if (u.is_load()) iq_mem_.remove(h);  // wrong-path loads complete locally
    if (u.is_control() && inflight_ctrl_[u.tid] > 0) --inflight_ctrl_[u.tid];
    assert(exec_live_ > 0);
    --exec_live_;

    if (u.is_control() && !u.wrong_path) {
      ++stats_.branches_resolved;
      // Training already happened at fetch; resolution pays the timing
      // penalty and repairs the speculative front-end state.
      if (u.mispredicted) {
        ++stats_.mispredicts;
        const ThreadId t = u.tid;
        squash_younger_than(t, u.local_order, SquashCause::BranchMispredict);
        // Repair speculative front-end state: back to this op's pre-predict
        // checkpoint, then re-apply its architectural effect.
        branch_.restore(t, u.bp_checkpoint);
        branch_.apply_resolved(t, u.ins);
        fstate_[t].resume_right_path(u.seq + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// issue
// ---------------------------------------------------------------------------

void SmtCore::do_issue(Cycle now) {
  std::uint32_t width = cfg_.core.issue_width;

  // Selection walks each queue's ready list, oldest first: exactly the
  // queue's entries whose sources are ready, in age order. Every candidate
  // it passes issues, so the issued ones are the list's prefix.

  // Integer and FP queues: entries leave at issue.
  for (const auto& [q, list] : {std::pair{&iq_int_, OperandWakeup::kInt},
                                std::pair{&iq_fp_, OperandWakeup::kFp}}) {
    const auto& ready = wakeup_.ready(list);
    std::size_t n = 0;
    for (; n < ready.size() && width > 0; ++n) {
      const UopHandle h = ready[n].h;
      MicroOp& u = pool_[h];
      if (!fu_.try_take(u.ins.cls)) break;  // class units exhausted
      u.issued = true;
      u.stage = PipeStage::Queue;  // occupancy_stage maps issued->Execute
      u.ready_at = now + FuBudget::latency(cfg_.core, u.ins.cls);
      exec_wheel_.schedule(u.ready_at, now, {h, pool_.generation(h)});
      ++exec_live_;
      q->remove(h);
      assert(preissue_[u.tid] > 0);
      --preissue_[u.tid];
      ++stats_.instructions_issued;
      --width;
    }
    wakeup_.pop_front(list, n);
  }

  // Memory queue: loads issue to the hierarchy but keep their LSQ entry
  // until the data returns (stores wait for commit).
  const auto& ready = wakeup_.ready(OperandWakeup::kLoad);
  std::size_t n = 0;
  for (; n < ready.size() && width > 0; ++n) {
    const UopHandle h = ready[n].h;
    MicroOp& u = pool_[h];
    if (!fu_.try_take(InstrClass::Load)) break;
    u.issued = true;
    assert(preissue_[u.tid] > 0);
    --preissue_[u.tid];
    ++stats_.instructions_issued;
    --width;
    if (u.wrong_path) {
      // Wrong-path loads never touch the hierarchy (paper methodology):
      // they complete locally after the L1 hit latency.
      u.ready_at = now + cfg_.mem.l1_latency;
      exec_wheel_.schedule(u.ready_at, now, {h, pool_.generation(h)});
      ++exec_live_;
    } else {
      const std::uint64_t token =
          mem_.request_load(id_, u.tid, u.ins.eff_addr, now);
      u.mem_token = token;
      load_by_token_.emplace(token, h);
      ++stats_.loads_issued;
      policy_->on_load_issued(u.tid, token, mem_.l2_bank_of(u.ins.eff_addr),
                              now);
      policy_dirty_ = true;
    }
  }
  if (n > 0) {
    // The issued loads are lsq_unissued_'s entries in the same (age)
    // order, so one merge pass drops them all.
    std::size_t k = 0;
    std::size_t out = 0;
    for (const UopHandle h : lsq_unissued_) {
      if (k < n && ready[k].h == h)
        ++k;
      else
        lsq_unissued_[out++] = h;
    }
    assert(k == n);
    lsq_unissued_.resize(out);
    wakeup_.pop_front(OperandWakeup::kLoad, n);
  }
}

// ---------------------------------------------------------------------------
// dispatch (rename)
// ---------------------------------------------------------------------------

void SmtCore::do_dispatch(Cycle now) {
  std::uint32_t width = cfg_.core.rename_width;
  const auto n = static_cast<std::uint32_t>(traces_.size());
  // Rotate the starting thread for fairness.
  const std::uint32_t start = static_cast<std::uint32_t>(now) % n;
  for (std::uint32_t i = 0; i < n && width > 0; ++i) {
    const ThreadId t = (start + i) % n;
    while (width > 0 && !frontend_[t].empty()) {
      const UopHandle h = frontend_[t].front();
      MicroOp& u = pool_[h];
      if (now < u.fetch_cycle + fe_depth_) {
        ++stats_.dispatch_blocked_young;
        break;  // still in the delay line
      }
      if (rob_[t].full()) {
        ++stats_.dispatch_blocked_rob;
        break;
      }
      IssueQueue& q = queue_for(u.ins.cls);
      if (q.full()) {
        if (&q == &iq_int_)
          ++stats_.dispatch_blocked_iq_int;
        else if (&q == &iq_fp_)
          ++stats_.dispatch_blocked_iq_fp;
        else
          ++stats_.dispatch_blocked_iq_mem;
        break;
      }
      if (u.ins.has_dst() && !rename_[t].can_rename(u.ins.dst)) {
        ++stats_.dispatch_blocked_regs;
        break;
      }

      // Rename sources then destination.
      for (int s = 0; s < 2; ++s) {
        u.src_phys[s] = u.ins.src[s] == kNoLogReg
                            ? kNoPhysReg
                            : rename_[t].lookup(u.ins.src[s]);
      }
      if (u.ins.has_dst()) {
        const auto r = rename_[t].rename_dst(u.ins.dst);
        u.dst_phys = r.fresh;
        u.prev_dst_phys = r.previous;
      }
      u.stage = PipeStage::Queue;
      rob_[t].push_back(h);
      q.insert(h);
      if (&q == &iq_mem_ && u.is_load()) lsq_unissued_.push_back(h);
      if (!u.is_store()) enqueue_for_wakeup(h);
      ++preissue_[t];
      frontend_[t].pop_front();
      --width;
    }
  }
}

// ---------------------------------------------------------------------------
// fetch
// ---------------------------------------------------------------------------

void SmtCore::do_fetch(Cycle now) {
  // Skip the priority computation when no context may fetch this cycle,
  // being blocked, gated or out of fetch-buffer room (checked after
  // on_cycle so same-cycle ungating is honoured; every policy's
  // fetch_order is a pure function of the view, so skipping it cannot
  // change later decisions).
  bool any_can_fetch = false;
  for (ThreadId t = 0; t < fstate_.size(); ++t)
    any_can_fetch |= fstate_[t].can_fetch() && frontend_[t].size() < fe_cap_;
  if (!any_can_fetch) return;

  CoreView view;
  view.num_threads = static_cast<std::uint32_t>(traces_.size());
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    view.icount[t] = preissue_count(t);
    view.brcount[t] = inflight_ctrl_[t];
    view.misscount[t] = inflight_dmiss_[t];
    view.blocked[t] = fstate_[t].hard_blocked();
  }
  std::array<ThreadId, kMaxContexts> order{};
  policy_->fetch_order(view, order);

  std::uint32_t budget = cfg_.core.fetch_width;
  std::uint32_t threads_used = 0;
  for (std::uint32_t i = 0;
       i < view.num_threads && budget > 0 &&
       threads_used < cfg_.core.fetch_threads;
       ++i) {
    const ThreadId t = order[i];
    if (!fstate_[t].can_fetch()) continue;
    const std::uint32_t fetched = fetch_thread(t, budget, now);
    if (fetched > 0) {
      budget -= fetched;
      ++threads_used;
    }
  }
}

std::uint32_t SmtCore::fetch_thread(ThreadId t, std::uint32_t budget,
                                    Cycle now) {
  ThreadFetchState& fs = fstate_[t];
  std::uint32_t fetched = 0;

  while (budget > 0 && frontend_[t].size() < fe_cap_) {
    // Determine the pc of the next instruction on the (possibly wrong)
    // fetch path.
    TraceInstr ins;
    if (fs.wrong_path) {
      ins = bbdict_.instr(fs.wp_base, fs.wp_k);
    } else {
      ins = traces_[t]->at(fs.next_seq);
    }

    // I-cache: probe once per line transition.
    const Addr line = ins.pc & ~Addr{cfg_.mem.line_bytes - 1};
    if (line != fs.last_fetch_line) {
      const auto token = mem_.request_ifetch(id_, t, ins.pc, now);
      if (token) {
        fs.icache_wait = true;
        fs.icache_token = *token;
        break;  // fetch stalls until the line arrives
      }
      fs.last_fetch_line = line;
    }

    const UopHandle h = pool_.alloc();
    MicroOp& u = pool_[h];
    u.ins = ins;
    u.tid = t;
    u.fetch_cycle = now;
    u.stage = PipeStage::Fetch;
    u.local_order = fs.next_local_order++;
    u.wrong_path = fs.wrong_path;
    u.seq = fs.wrong_path ? fs.wp_k : fs.next_seq;

    bool taken_break = false;
    if (ins.is_control()) {
      ++inflight_ctrl_[t];  // BRCOUNT metric
      u.bp_checkpoint = branch_.checkpoint(t);
      const BranchPrediction pred = branch_.predict(t, ins);
      u.pred_taken = pred.taken;
      u.pred_target = pred.target;
      if (!fs.wrong_path) {
        // Trace-driven simulators train the predictor with the known
        // outcome at fetch (in program order, against the exact history the
        // prediction used); the *timing* cost of a mispredict is still paid
        // at resolution. This avoids the unrealistic cold-start spiral a
        // resolution-time-trained predictor suffers when branches depend on
        // missing loads.
        branch_.resolve(t, ins, pred.taken, u.bp_checkpoint.history);
      }
      if (fs.wrong_path) {
        // Wrong-path control: prediction only steers the bogus stream.
        if (pred.taken) {
          fs.wp_base = pred.target;
          fs.wp_k = 0;
          taken_break = true;
        }
      } else {
        u.mispredicted = (pred.taken != ins.taken) ||
                         (pred.taken && pred.target != ins.target);
        if (u.mispredicted) {
          // Fetch continues down the predicted (wrong) path.
          fs.wrong_path = true;
          fs.wp_base = pred.taken ? pred.target : ins.pc + 4;
          fs.wp_k = 0;
          if (pred.taken) taken_break = true;
        } else if (pred.taken) {
          taken_break = true;  // classic fetch-to-taken-branch break
        }
      }
    }

    if (fs.wrong_path && u.wrong_path) {
      if (!taken_break) ++fs.wp_k;
      ++stats_.fetched_wrong_path;
    } else if (!u.wrong_path) {
      ++fs.next_seq;
    }

    frontend_[t].push_back(h);
    ++stats_.fetched;
    ++fetched;
    --budget;
    if (taken_break) {
      fs.last_fetch_line = ~Addr{0};  // redirect: new line next cycle
      break;
    }
  }
  return fetched;
}

// ---------------------------------------------------------------------------
// squash machinery
// ---------------------------------------------------------------------------

void SmtCore::remove_squashed_uop(UopHandle h, SquashCause cause, Cycle now) {
  MicroOp& u = pool_[h];
  if (u.is_control() && !u.completed && inflight_ctrl_[u.tid] > 0)
    --inflight_ctrl_[u.tid];
  const PipeStage st = occupancy_stage(u, now);
  auto& ledger = cause == SquashCause::PolicyFlush
                     ? stats_.policy_flushed_by_stage
                     : stats_.branch_squashed_by_stage;
  ++ledger[static_cast<std::size_t>(st)];

  if (u.stage == PipeStage::Queue) {
    IssueQueue& q = queue_for(u.ins.cls);
    const bool was_in_q = q.remove(h);
    if (was_in_q && !u.issued) {
      assert(preissue_[u.tid] > 0);
      --preissue_[u.tid];
      if (u.is_load()) std::erase(lsq_unissued_, h);
      wakeup_.remove(h);
    }
    // Issued-but-incomplete uops with no hierarchy token live on the exec
    // wheel (right-path loads wait on the hierarchy instead). Their wheel
    // entry stays behind as a stale slot — the generation check in
    // do_writeback discards it — but the live count drops now so the
    // all-threads-stalled early exit stays exact.
    if (u.issued && !u.completed && u.mem_token == 0) {
      assert(exec_live_ > 0);
      --exec_live_;
    }
    if (u.mem_token != 0) {
      load_by_token_.erase(u.mem_token);
      u.mem_token = 0;
    }
    // Rename unwind (caller guarantees youngest-first ordering).
    if (u.dst_phys != kNoPhysReg)
      rename_[u.tid].unwind(u.ins.dst, u.dst_phys, u.prev_dst_phys);
  }
  pool_.release(h);
}

void SmtCore::squash_younger_than(ThreadId t, std::uint64_t older_order,
                                  SquashCause cause) {
  const Cycle now = now_;  // only used for stage classification
  // Oldest squashed control op, for branch-state repair.
  bool have_ctrl = false;
  std::uint64_t ctrl_order = 0;
  BranchUnit::Checkpoint ctrl_cp{};

  auto note_ctrl = [&](const MicroOp& u) {
    if (u.is_control() && (!have_ctrl || u.local_order < ctrl_order)) {
      have_ctrl = true;
      ctrl_order = u.local_order;
      ctrl_cp = u.bp_checkpoint;
    }
  };

  // Front-end first (youngest): every entry is younger than anything
  // dispatched, but guard with the order check anyway.
  while (!frontend_[t].empty()) {
    const UopHandle h = frontend_[t].back();
    if (pool_[h].local_order <= older_order) break;
    note_ctrl(pool_[h]);
    frontend_[t].pop_back();
    remove_squashed_uop(h, cause, now);
  }
  // ROB from the tail, youngest first (required for rename unwind).
  while (!rob_[t].empty()) {
    const UopHandle h = rob_[t].back();
    if (pool_[h].local_order <= older_order) break;
    note_ctrl(pool_[h]);
    rob_[t].pop_back();
    remove_squashed_uop(h, cause, now);
  }

  if (have_ctrl) branch_.restore(t, ctrl_cp);
}

// ---------------------------------------------------------------------------
// CoreControl (policy response actions)
// ---------------------------------------------------------------------------

bool SmtCore::flush_after_load(std::uint64_t mem_token) {
  const auto it = load_by_token_.find(mem_token);
  if (it == load_by_token_.end()) return false;
  const UopHandle h = it->second;
  const MicroOp& u = pool_[h];
  const ThreadId t = u.tid;
  assert(!u.wrong_path && "flush target must be an architectural load");
  squash_younger_than(t, u.local_order, SquashCause::PolicyFlush);
  fstate_[t].resume_right_path(u.seq + 1);
  fstate_[t].stall_tokens.push_back(mem_token);
  ++stats_.policy_flush_events;
  policy_dirty_ = true;
  return true;
}

bool SmtCore::stall_until_load(std::uint64_t mem_token) {
  const auto it = load_by_token_.find(mem_token);
  if (it == load_by_token_.end()) return false;
  const ThreadId t = pool_[it->second].tid;
  auto& tokens = fstate_[t].stall_tokens;
  if (std::find(tokens.begin(), tokens.end(), mem_token) == tokens.end())
    tokens.push_back(mem_token);
  return true;
}

void SmtCore::set_fetch_gate(ThreadId tid, bool gated) {
  fstate_[tid].gated = gated;
}

// ---------------------------------------------------------------------------
// snapshot support
// ---------------------------------------------------------------------------

template <class Ar>
void SmtCore::fields(Ar& ar) {
  ar.io(stats_, now_);
  for (std::size_t t = 0; t < fstate_.size(); ++t)
    ar.io(fstate_[t], frontend_[t], rename_[t], rob_[t]);
  ar.io(preissue_, inflight_ctrl_, inflight_dmiss_, int_regs_, fp_regs_,
        iq_int_, iq_fp_, iq_mem_, pool_, exec_wheel_, exec_live_,
        lsq_unissued_, load_by_token_, branch_, *policy_);
}

void SmtCore::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void SmtCore::load_state(ArchiveReader& ar) { ar.walk(*this); }

}  // namespace mflush
