#include "mem/hierarchy.h"

#include <algorithm>
#include <cassert>

namespace mflush {

MemoryHierarchy::MemoryHierarchy(const SimConfig& cfg)
    : cfg_(cfg),
      bus_(cfg.num_cores, cfg.mem.bus_latency),
      l2_(cfg.mem.l2_bytes, cfg.mem.l2_ways, cfg.mem.line_bytes,
          cfg.mem.l2_banks, cfg.mem.l2_bank_latency),
      memory_(make_memory_model(cfg.mem)) {
  const std::uint32_t n = cfg.num_cores;
  l1i_.reserve(n);
  l1d_.reserve(n);
  itlb_.reserve(n);
  dtlb_.reserve(n);
  mshr_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    l1i_.emplace_back(CacheGeometry{cfg.mem.l1i_bytes, cfg.mem.l1i_ways,
                                    cfg.mem.line_bytes, cfg.mem.l1i_banks});
    l1d_.emplace_back(CacheGeometry{cfg.mem.l1d_bytes, cfg.mem.l1d_ways,
                                    cfg.mem.line_bytes, cfg.mem.l1d_banks});
    itlb_.emplace_back(cfg.mem.itlb_entries, cfg.mem.page_bytes);
    dtlb_.emplace_back(cfg.mem.dtlb_entries, cfg.mem.page_bytes);
    mshr_.emplace_back(cfg.mem.mshr_entries);
  }
  mshr_overflow_.resize(n);
  completions_.resize(n);
  l2_events_.resize(n);
  l2_miss_events_.resize(n);
  // The per-core event buffers are drained (then clear()ed) by the cores
  // every cycle; pre-reserving once removes the growth reallocations from
  // the tick hot path — afterwards push_back never allocates in steady
  // state.
  for (std::uint32_t c = 0; c < n; ++c) {
    completions_[c].reserve(64);
    l2_events_[c].reserve(64);
    l2_miss_events_[c].reserve(64);
  }
  fetch_pool_.reserve(128);
  fetch_free_.reserve(128);
  scratch_mem_done_.reserve(64);
  scratch_l2_done_.reserve(64);
  scratch_bus_done_.reserve(64);
}

std::uint64_t MemoryHierarchy::alloc_fetch_slot() {
  if (!fetch_free_.empty()) {
    const std::uint64_t idx = fetch_free_.back();
    fetch_free_.pop_back();
    return idx;
  }
  fetch_pool_.emplace_back();
  return fetch_pool_.size() - 1;
}

std::uint64_t MemoryHierarchy::request_load(CoreId core, ThreadId tid,
                                            Addr addr, Cycle now) {
  ++stats_.loads;
  Cycle penalty = 0;
  if (!dtlb_[core].access(addr)) {
    ++stats_.dtlb_misses;
    penalty = cfg_.mem.tlb_miss_penalty;
  }
  Req r;
  r.core = core;
  r.tid = tid;
  r.addr = addr;
  r.kind = MemKind::Load;
  r.token = next_token_++;
  r.issue = now;
  r.ready_at = now + cfg_.mem.l1_latency + penalty;
  r.order = next_order_++;
  l1_wheel_.schedule(r.ready_at, now, r);
  return r.token;
}

void MemoryHierarchy::request_store(CoreId core, ThreadId tid, Addr addr,
                                    Cycle now) {
  ++stats_.stores;
  Cycle penalty = 0;
  if (!dtlb_[core].access(addr)) {
    ++stats_.dtlb_misses;
    penalty = cfg_.mem.tlb_miss_penalty;
  }
  Req r;
  r.core = core;
  r.tid = tid;
  r.addr = addr;
  r.kind = MemKind::Store;
  r.token = 0;  // fire-and-forget
  r.issue = now;
  r.ready_at = now + cfg_.mem.l1_latency + penalty;
  r.order = next_order_++;
  l1_wheel_.schedule(r.ready_at, now, r);
}

std::optional<std::uint64_t> MemoryHierarchy::request_ifetch(CoreId core,
                                                             ThreadId tid,
                                                             Addr pc,
                                                             Cycle now) {
  ++stats_.ifetches;
  if (!itlb_[core].access(pc)) {
    // Page-walk first, then the L1I probe happens when the walk finishes.
    ++stats_.itlb_misses;
    Req r;
    r.core = core;
    r.tid = tid;
    r.addr = pc;
    r.kind = MemKind::IFetch;
    r.token = next_token_++;
    r.issue = now;
    r.ready_at = now + cfg_.mem.tlb_miss_penalty;
    r.order = next_order_++;
    l1_wheel_.schedule(r.ready_at, now, r);
    return r.token;
  }
  // The 3-cycle L1I pipeline is folded into the front-end fetch stages, so
  // a hit does not add a bubble.
  if (l1i_[core].access(pc, /*is_write=*/false)) return std::nullopt;
  Req r;
  r.core = core;
  r.tid = tid;
  r.addr = pc;
  r.kind = MemKind::IFetch;
  r.token = next_token_++;
  r.issue = now;
  r.ready_at = now;
  r.order = next_order_++;
  // Miss handled immediately (no extra pipe delay: the probe already
  // happened synchronously).
  start_line_fetch(r, l1i_[core].line_of(pc), now);
  return r.token;
}

void MemoryHierarchy::process_l1(const Req& r, Cycle now) {
  SetAssocCache& cache =
      r.kind == MemKind::IFetch ? l1i_[r.core] : l1d_[r.core];
  const bool hit = cache.access(r.addr, r.kind == MemKind::Store);
  if (hit) {
    if (r.kind != MemKind::Store) {
      completions_[r.core].push_back(MemCompletion{.token = r.token,
                                                   .tid = r.tid,
                                                   .kind = r.kind,
                                                   .issue_cycle = r.issue,
                                                   .done_cycle = now});
    }
    return;
  }
  start_line_fetch(r, cache.line_of(r.addr), now);
}

void MemoryHierarchy::start_line_fetch(const Req& r, Addr line, Cycle now) {
  Mshr& mshr = mshr_[r.core];
  MshrWaiter waiter{
      .token = r.token, .tid = r.tid, .issue_cycle = r.issue, .kind = r.kind};

  if (r.kind == MemKind::Load) {
    // The moment the access leaves for the L2: MFLUSH reads MCReg here.
    l2_events_[r.core].push_back(
        L2PathEvent{r.token, r.tid, l2_.bank_of(line), now});
  }

  if (const auto slot = mshr.find(line)) {
    mshr.attach(*slot, waiter);  // secondary miss: coalesce
    if (r.kind == MemKind::Load && mshr.miss_known(*slot)) {
      // The line already missed in L2: a non-speculative detector would
      // flag this load immediately.
      l2_miss_events_[r.core].push_back(
          L2PathEvent{r.token, r.tid, l2_.bank_of(line), now});
    }
    return;
  }
  const auto slot = mshr.allocate(line);
  if (!slot) {
    mshr_overflow_[r.core].push_back(r);  // retried every tick
    return;
  }
  mshr.attach(*slot, waiter);
  const std::uint64_t payload = alloc_fetch_slot();
  LineFetch& f = fetch_pool_[payload];
  f.line = line;
  f.core = r.core;
  f.mshr_slot = *slot;
  f.is_writeback = false;
  f.is_ifetch = r.kind == MemKind::IFetch;
  f.in_use = true;
  bus_.push(r.core, payload, now);
}

void MemoryHierarchy::push_writeback(CoreId core, Addr line, Cycle now) {
  ++stats_.l1_writebacks;
  const std::uint64_t payload = alloc_fetch_slot();
  LineFetch& f = fetch_pool_[payload];
  f.line = line;
  f.core = core;
  f.mshr_slot = 0;
  f.is_writeback = true;
  f.is_ifetch = false;
  f.in_use = true;
  bus_.push(core, payload, now);
}

void MemoryHierarchy::complete_line_fetch(std::uint64_t payload, Cycle now,
                                          bool l2_hit) {
  // By value: push_writeback below can grow fetch_pool_ and invalidate
  // references into it.
  const LineFetch f = fetch_pool_[payload];
  assert(f.in_use);
  if (!f.is_writeback) {
    // Pooled view: valid until the slot's next allocate, which cannot
    // happen before this function returns.
    const auto& waiters = mshr_[f.core].release(f.mshr_slot);
    bool dirty = false;
    for (const auto& w : waiters)
      if (w.kind == MemKind::Store) dirty = true;
    SetAssocCache& cache = f.is_ifetch ? l1i_[f.core] : l1d_[f.core];
    const EvictInfo ev = cache.fill(f.line, dirty);
    if (ev.evicted && ev.victim_dirty)
      push_writeback(f.core, ev.victim_line, now);
    const std::uint32_t bank = l2_.bank_of(f.line);
    for (const auto& w : waiters) {
      if (w.kind != MemKind::Store) {
        completions_[f.core].push_back(
            MemCompletion{.token = w.token,
                          .tid = w.tid,
                          .kind = w.kind,
                          .issue_cycle = w.issue_cycle,
                          .done_cycle = now,
                          .l2_accessed = true,
                          .l2_hit = l2_hit,
                          .l2_bank = bank});
      }
      if (w.kind == MemKind::Load) {
        if (l2_hit)
          stats_.l2_load_hit_time.add(static_cast<double>(now - w.issue_cycle));
        else
          ++stats_.l2_load_misses;
      }
    }
  }
  fetch_pool_[payload].in_use = false;
  fetch_free_.push_back(payload);
}

void MemoryHierarchy::tick(Cycle now) {
  // Stages run upstream-first so a request can hand off L1 -> bus -> bank
  // within one cycle once its stage latency elapses; the unloaded L2 hit
  // is then exactly l1 + bus + bank = 22 cycles.

  // 1) memory returns -> L2 fills -> complete as misses
  scratch_mem_done_.clear();
  memory_->tick(now, scratch_mem_done_);
  for (const std::uint64_t payload : scratch_mem_done_) {
    LineFetch& f = fetch_pool_[payload];
    const EvictInfo ev = l2_.fill(f.line, /*dirty=*/false);
    if (ev.evicted && ev.victim_dirty)
      memory_->start_write(ev.victim_line, now);
    complete_line_fetch(payload, now, /*l2_hit=*/false);
  }

  // 2) L1 pipeline (loads/stores after their 3-cycle access + TLB walks).
  // The wheel hands back this cycle's bucket; restore the old heap's exact
  // (ready_at, order) processing order over the small due batch.
  scratch_l1_due_.clear();
  l1_wheel_.pop_due(now, scratch_l1_due_);
  if (!scratch_l1_due_.empty()) {
    std::sort(scratch_l1_due_.begin(), scratch_l1_due_.end(),
              [](const Req& a, const Req& b) {
                return a.ready_at != b.ready_at ? a.ready_at < b.ready_at
                                                : a.order < b.order;
              });
    for (const Req& r : scratch_l1_due_) process_l1(r, now);
  }

  // 3) retry accesses that found the MSHR full (slots may have freed above)
  for (CoreId c = 0; c < mshr_overflow_.size(); ++c) {
    auto& q = mshr_overflow_[c];
    while (!q.empty() && !mshr_[c].full()) {
      const Req r = q.front();
      q.pop_front();
      start_line_fetch(r, l1d_[c].line_of(r.addr), now);
    }
  }

  // 4) bus transfers arrive at their banks
  scratch_bus_done_.clear();
  bus_.tick(now, scratch_bus_done_);
  for (const std::uint64_t payload : scratch_bus_done_) {
    const LineFetch& f = fetch_pool_[payload];
    l2_.enqueue(f.line, payload, f.is_writeback, now);
  }

  // 5) L2 bank services complete: hits resolve, misses go to memory
  scratch_l2_done_.clear();
  l2_.tick(now, scratch_l2_done_);
  for (const L2ServiceResult& r : scratch_l2_done_) {
    if (r.hit) {
      complete_line_fetch(r.payload, now, /*l2_hit=*/true);
    } else {
      const LineFetch& f = fetch_pool_[r.payload];
      // FL-NS detection moment: the miss is now known; tell the core's
      // policy about every load currently waiting on this line.
      Mshr& mshr = mshr_[f.core];
      mshr.set_miss_known(f.mshr_slot);
      for (const MshrWaiter& w : mshr.waiters(f.mshr_slot)) {
        if (w.kind == MemKind::Load) {
          l2_miss_events_[f.core].push_back(
              L2PathEvent{w.token, w.tid, r.bank, now});
        }
      }
      memory_->start_read(f.line, r.payload, now);
    }
  }
}

Cycle MemoryHierarchy::next_event_cycle(Cycle now) const {
  // Buffered, not-yet-drained events mean the cores must tick next cycle.
  for (CoreId c = 0; c < completions_.size(); ++c) {
    if (!completions_[c].empty() || !l2_events_[c].empty() ||
        !l2_miss_events_[c].empty())
      return now + 1;
  }
  // A full MSHR retry queue polls every tick.
  for (const auto& q : mshr_overflow_)
    if (!q.empty()) return now + 1;

  Cycle e = memory_->next_event_cycle();
  e = std::min(e, bus_.next_event_cycle(now));
  e = std::min(e, l2_.next_event_cycle(now));
  // now + 1 is the floor; skip the O(span) wheel scan once it is reached.
  if (e > now + 1 && !l1_wheel_.empty())
    e = std::min(e, l1_wheel_.next_due());
  return e;
}

Cycle MemoryHierarchy::next_event_cycle_for(CoreId c, Cycle now) const {
  if (has_events(c)) return now + 1;  // undrained buffers: tick immediately
  if (!mshr_overflow_[c].empty()) return now + 1;  // retried every tick
  // L1 pipeline / TLB walks of this core.
  Cycle e = l1_wheel_.next_due_if([c](const Req& r) { return r.core == c; });
  // A queued bus request can be granted as soon as next cycle; an in-flight
  // transfer still needs its bank service after arrival, so `arrives` is a
  // (loose but sound) lower bound.
  for (const SharedBus::Pending& p : bus_.in_flight())
    if (fetch_pool_[p.payload].core == c) e = std::min(e, p.arrives);
  if (bus_.has_queued_from(c)) e = std::min(e, now + 1);
  // L2 bank service or memory access in flight for this core: the bank/
  // memory event time is known globally, but mapping it per core costs a
  // queue walk; `now + 1` is the sound floor (a busy bank already pins the
  // global clock to per-cycle ticking anyway).
  for (std::uint32_t b = 0; b < l2_.banks(); ++b) {
    if (l2_.bank_serves_core(b, [this, c](std::uint64_t payload) {
          return fetch_pool_[payload].core == c;
        })) {
      e = std::min(e, now + 1);
      break;
    }
  }
  // Earliest due memory completion for this core. next_done_if scans for
  // the earliest MATCHING completion: with the DRAM model, completion
  // times are not monotone in issue order, so "first in flight" would be
  // an unsound (too late) horizon and strand a sleeping core.
  const Cycle mem_e =
      memory_->next_done_if([this, c](std::uint64_t payload) {
        return fetch_pool_[payload].core == c;
      });
  e = std::min(e, mem_e);
  return e > now ? e : now + 1;
}

template <class Ar>
void MemoryHierarchy::fields(Ar& ar) {
  for (SetAssocCache& c : l1i_) ar.io(c);
  for (SetAssocCache& c : l1d_) ar.io(c);
  for (Tlb& t : itlb_) ar.io(t);
  for (Tlb& t : dtlb_) ar.io(t);
  for (Mshr& m : mshr_) ar.io(m);
  ar.io(bus_, l2_, *memory_, l1_wheel_);
  for (auto& q : mshr_overflow_) ar.io(q);
  ar.io(fetch_pool_, fetch_free_);
  for (auto& v : completions_) ar.io(v);
  for (auto& v : l2_events_) ar.io(v);
  for (auto& v : l2_miss_events_) ar.io(v);
  ar.io(next_token_, next_order_, stats_);
}

void MemoryHierarchy::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void MemoryHierarchy::load_state(ArchiveReader& ar) { ar.walk(*this); }

void MemoryHierarchy::reset_stats() {
  stats_.reset();
  for (auto& c : l1i_) c.reset_stats();
  for (auto& c : l1d_) c.reset_stats();
  for (auto& t : itlb_) t.reset_stats();
  for (auto& t : dtlb_) t.reset_stats();
  l2_.reset_stats();
  bus_.reset_stats();
  memory_->reset_stats();
}

}  // namespace mflush
