#include "trace/generator.h"

#include <bit>
#include <cassert>

namespace mflush {
namespace {

constexpr Addr kCodeBase = 0x0040'0000;
constexpr Addr kHotBase = 0x1000'0000;
constexpr Addr kL2Base = 0x2000'0000;
constexpr Addr kMemBase = 0x4000'0000;
constexpr Addr kStreamBase = 0x8000'0000;

/// Stateless 64-bit mix for per-site deterministic decisions.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

SyntheticTraceSource::SyntheticTraceSource(BenchmarkProfile profile,
                                           std::uint64_t seed,
                                           std::uint32_t window,
                                           std::uint64_t space_id)
    : profile_(profile.normalized()),
      rng_(derive_seed(seed, 0x74726163 /*"trac"*/, space_id)),
      site_salt_(derive_seed(seed, 0x73697465 /*"site"*/, space_id)),
      site_pos_(kSiteTable, 0) {
  num_strands_ = profile_.strands;
  int_last_.fill(kNoLogReg);
  fp_last_.fill(kNoLogReg);
  load_last_.fill(kNoLogReg);

  const Addr salt = (space_id + 1) << 40;  // private address space per thread
  code_bytes_ = static_cast<Addr>(profile_.icache_lines) * 64;
  code_base_ = salt | kCodeBase;
  hot_base_ = salt | kHotBase;
  l2_base_ = salt | kL2Base;
  mem_base_ = salt | kMemBase;
  stream_base_ = salt | kStreamBase;
  pc_ = code_base_;
  shadow_stack_.reserve(kShadowStack);

  const std::uint64_t cap = std::bit_ceil<std::uint64_t>(
      static_cast<std::uint64_t>(window) * 2 + 64);
  ring_.resize(cap);
  ring_mask_ = cap - 1;
}

void SyntheticTraceSource::save_state(ArchiveWriter& ar) const {
  ar.walk(*this);
}
void SyntheticTraceSource::load_state(ArchiveReader& ar) { ar.walk(*this); }

const TraceInstr& SyntheticTraceSource::at(SeqNo seq) {
  assert(seq >= retire_point_ && "request below retire point");
  while (seq >= next_seq_) generate_next();
  assert(next_seq_ - seq <= ring_.size() && "request fell out of the ring");
  return ring_[seq & ring_mask_];
}

void SyntheticTraceSource::retire_up_to(SeqNo seq) {
  retire_point_ = std::max(retire_point_, seq);
}

std::uint32_t SyntheticTraceSource::pick_strand() noexcept {
  // Instructions interleave across strands; a short run (2-3 ops) per
  // strand mimics scheduled code without serializing it.
  if (rng_.next_below(100) < 40)
    cur_strand_ = static_cast<std::uint32_t>(rng_.next_below(num_strands_));
  return cur_strand_;
}

LogReg SyntheticTraceSource::alloc_int_dst(std::uint32_t strand) noexcept {
  const std::uint32_t group = 32 / num_strands_;
  const LogReg r = static_cast<LogReg>(strand * group +
                                       int_cursor_[strand] % group);
  int_cursor_[strand] = static_cast<std::uint8_t>(int_cursor_[strand] + 1);
  int_last_[strand] = r;
  return r;
}

LogReg SyntheticTraceSource::alloc_fp_dst(std::uint32_t strand) noexcept {
  const std::uint32_t group = 32 / num_strands_;
  const LogReg r = static_cast<LogReg>(32 + strand * group +
                                       fp_cursor_[strand] % group);
  fp_cursor_[strand] = static_cast<std::uint8_t>(fp_cursor_[strand] + 1);
  fp_last_[strand] = r;
  return r;
}

LogReg SyntheticTraceSource::strand_int_src(std::uint32_t strand) noexcept {
  return int_last_[strand] != kNoLogReg ? int_last_[strand]
                                        : old_int_src();
}

LogReg SyntheticTraceSource::strand_fp_src(std::uint32_t strand) noexcept {
  return fp_last_[strand] != kNoLogReg ? fp_last_[strand] : old_fp_src();
}

LogReg SyntheticTraceSource::old_int_src() noexcept {
  // Long-lived value (loop invariant, stack/global pointer): any register;
  // it was written long ago with high probability, so it is almost always
  // available.
  return static_cast<LogReg>(rng_.next_below(32));
}

LogReg SyntheticTraceSource::old_fp_src() noexcept {
  return static_cast<LogReg>(32 + rng_.next_below(32));
}

Addr SyntheticTraceSource::pick_data_addr(bool& out_is_stream) {
  out_is_stream = false;
  if (rng_.chance(profile_.p_stream)) {
    out_is_stream = true;
    const Addr span = static_cast<Addr>(profile_.stream_lines) * 64;
    const Addr a = stream_base_ + (stream_cursor_ % span);
    stream_cursor_ += 8;
    return a;
  }
  const double r = rng_.next_double();
  if (r < profile_.p_mem) {
    const Addr line = rng_.next_below(profile_.mem_lines);
    return mem_base_ + line * 64 + rng_.next_below(8) * 8;
  }
  if (r < profile_.p_mem + profile_.p_l2) {
    const Addr line = rng_.next_below(profile_.l2_lines);
    return l2_base_ + line * 64 + rng_.next_below(8) * 8;
  }
  const Addr line = rng_.next_below(profile_.hot_lines);
  return hot_base_ + line * 64 + rng_.next_below(8) * 8;
}

// Control-flow model: real code is loop-structured. Every branch pc is
// deterministically one of:
//   * a BACKEDGE site (~30%): jumps a short distance backward and is taken
//     (period-1)/period of the time — a loop. The walk re-executes the same
//     pcs, so the BTB/predictor capture it, as they do on real workloads.
//   * a FORWARD site: a mostly-not-taken conditional whose taken target is
//     a short forward hop (if/else skip), staying inside the current loop.
//   * rarely (~1.5%), a FAR site: a long jump that re-seats the hot region
//     (phase change).
// Profile knobs: predictability = fraction of sites following a learnable
// periodic pattern (others are Bernoulli noise); pattern_period scales loop
// trip counts; mean_bb_len scales body/hop sizes.

namespace {
enum class SiteKind { Backedge, Forward, Far };
}

Addr SyntheticTraceSource::branch_target(Addr pc) {
  const std::uint64_t h = mix(pc ^ site_salt_);
  const std::uint64_t sel = h % 1000;
  const Addr bb = static_cast<Addr>(profile_.mean_bb_len);
  Addr rel = pc - code_base_;
  if (sel < 15) {  // far jump
    rel = ((h >> 16) % code_bytes_) & ~Addr{3};
  } else if (sel < 315) {  // backedge: body of ~0.5..3.5 mean basic blocks
    const Addr off = 4 * (bb / 2 + 1 + ((h >> 8) % (bb * 3)));
    rel = rel >= off ? rel - off : 0;
  } else {  // forward hop: skip 2..2*bb instructions
    const Addr off = 4 * (2 + ((h >> 8) % (2 * bb)));
    rel = (rel + off) % code_bytes_;
  }
  return code_base_ + (rel & ~Addr{3});
}

bool SyntheticTraceSource::branch_outcome(Addr pc) {
  const std::uint64_t h = mix(pc ^ site_salt_);
  const std::uint64_t sel = h % 1000;
  const std::uint64_t h2 = mix(pc ^ site_salt_ ^ 0x5a5a5a5a);
  const bool pattern_site =
      (static_cast<double>(h2 & 0xffff) / 65536.0) < profile_.predictability;
  const std::uint32_t period =
      2 + static_cast<std::uint32_t>((h2 >> 16) %
                                     (2 * profile_.pattern_period));
  auto& pos = site_pos_[(pc >> 2) & (kSiteTable - 1)];

  if (sel < 15) {
    // Far sites: rarely taken (phase changes).
    return rng_.chance(0.04);
  }
  if (sel < 315) {
    // Backedge: taken (period-1) of period executions (loop trip count).
    if (!pattern_site) return rng_.chance(0.85);
    const bool taken = (pos % period) != (period - 1);
    pos = static_cast<std::uint16_t>((pos + 1) % period);
    return taken;
  }
  // Forward conditional: mostly falls through; pattern sites fire once per
  // period, noisy sites with (1 - taken_bias) scaled down.
  if (!pattern_site) return rng_.chance(0.5 * (1.0 - profile_.taken_bias));
  const bool taken = (pos % period) == (period - 1);
  pos = static_cast<std::uint16_t>((pos + 1) % period);
  return taken;
}

InstrClass SyntheticTraceSource::class_at(Addr pc) const noexcept {
  // The code is STATIC: a given pc is always the same kind of instruction
  // (like the paper's basic-block dictionary of all static instructions).
  // Class thresholds follow the profile mix; operands/addresses still vary
  // per dynamic visit.
  const std::uint64_t h = mix(pc ^ site_salt_ ^ 0xc1a55);
  const double u = static_cast<double>(h & 0xffffff) / double(1 << 24);
  const BenchmarkProfile& p = profile_;
  double acc = p.f_load;
  if (u < acc) return InstrClass::Load;
  acc += p.f_store;
  if (u < acc) return InstrClass::Store;
  acc += p.f_branch;
  if (u < acc) return InstrClass::Branch;
  acc += p.f_call_ret / 2;
  if (u < acc) return InstrClass::Call;
  acc += p.f_call_ret / 2;
  if (u < acc) return InstrClass::Return;
  const double v = static_cast<double>((h >> 24) & 0xffff) / double(1 << 16);
  const double w = static_cast<double>((h >> 40) & 0xffff) / double(1 << 16);
  if (v < p.f_fp)
    return w < p.f_mul ? InstrClass::FpMul : InstrClass::FpAlu;
  return w < p.f_mul ? InstrClass::IntMul : InstrClass::IntAlu;
}

void SyntheticTraceSource::generate_next() {
  TraceInstr ins;
  ins.pc = pc_;
  ins.cls = class_at(pc_);

  const BenchmarkProfile& p = profile_;
  Addr next_pc = pc_ + 4;
  const std::uint32_t k = pick_strand();

  switch (ins.cls) {
    case InstrClass::Load: {
      bool is_stream = false;
      ins.eff_addr = pick_data_addr(is_stream);
      // Address register: pointer chase makes the address depend on the
      // strand's previous load result, serializing that strand's misses.
      if (!is_stream && load_last_[k] != kNoLogReg && rng_.chance(p.p_chase)) {
        ins.src[0] = load_last_[k];
      } else {
        ins.src[0] = old_int_src();  // base pointer: long-lived
      }
      ins.dst = alloc_int_dst(k);
      load_last_[k] = ins.dst;
      break;
    }
    case InstrClass::Store: {
      bool is_stream = false;
      ins.eff_addr = pick_data_addr(is_stream);
      ins.src[0] = old_int_src();  // address: long-lived base
      ins.src[1] = rng_.chance(p.f_fp) ? strand_fp_src(k) : strand_int_src(k);
      break;
    }
    case InstrClass::Branch: {
      // Loop branches test recently computed values (induction variables)
      // of their own strand, so they resolve as fast as the strand allows.
      ins.src[0] = strand_int_src(k);
      ins.taken = branch_outcome(pc_);
      ins.target = ins.taken ? branch_target(pc_) : pc_ + 4;
      if (ins.taken) next_pc = ins.target;
      break;
    }
    case InstrClass::Call: {
      ins.taken = true;
      ins.target = branch_target(pc_ ^ 0x1111);
      if (shadow_stack_.size() < kShadowStack)
        shadow_stack_.push_back(pc_ + 4);
      next_pc = ins.target;
      break;
    }
    case InstrClass::Return: {
      ins.taken = true;
      if (!shadow_stack_.empty()) {
        ins.target = shadow_stack_.back();
        shadow_stack_.pop_back();
      } else {
        ins.target = branch_target(pc_ ^ 0x2222);
      }
      next_pc = ins.target;
      break;
    }
    case InstrClass::FpAlu:
    case InstrClass::FpMul: {
      // Extend the strand's fp chain; the second operand is often the
      // strand's freshest load (fp kernels consume streamed data), else an
      // old value.
      ins.src[0] = strand_fp_src(k);
      ins.src[1] = (load_last_[k] != kNoLogReg && rng_.chance(0.4))
                       ? load_last_[k]
                       : old_fp_src();
      ins.dst = alloc_fp_dst(k);
      break;
    }
    case InstrClass::IntAlu:
    case InstrClass::IntMul: {
      ins.src[0] = strand_int_src(k);
      if (rng_.chance(0.6))
        ins.src[1] = rng_.chance(0.4) ? strand_int_src(k) : old_int_src();
      ins.dst = alloc_int_dst(k);
      break;
    }
  }

  // Keep the pc inside the code region (wrap implies no control transfer;
  // the footprint is what matters for the I-cache).
  if (next_pc < code_base_ || next_pc >= code_base_ + code_bytes_)
    next_pc = code_base_ + ((next_pc - code_base_) % code_bytes_ & ~Addr{3});
  pc_ = next_pc;

  ring_[next_seq_ & ring_mask_] = ins;
  ++next_seq_;
}

}  // namespace mflush
