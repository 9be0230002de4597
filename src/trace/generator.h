#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace mflush {

/// Deterministic synthetic instruction stream for one thread.
///
/// A (profile, seed, space_id) triple fully determines the stream. The
/// source keeps a power-of-two ring of recently generated instructions so
/// consumers can re-read (FLUSH re-fetch) anything newer than the retire
/// point; `window` must be at least the core's maximum in-flight span
/// (SimConfig::rewind_window()).
///
/// Address-space layout (per thread, salted by `space_id` in the high bits
/// so threads never share lines):
///   code    [0x0040'0000, +icache_lines*64)
///   hot     [0x1000'0000, +hot_lines*64)      — L1-resident
///   l2      [0x2000'0000, +l2_lines*64)       — fits (a share of) L2
///   mem     [0x4000'0000, +mem_lines*64)      — exceeds L2
///   stream  [0x8000'0000, +stream_lines*64)   — sequential sweep
class SyntheticTraceSource final : public TraceSource {
 public:
  SyntheticTraceSource(BenchmarkProfile profile, std::uint64_t seed,
                       std::uint32_t window, std::uint64_t space_id = 0);

  [[nodiscard]] const TraceInstr& at(SeqNo seq) override;
  void retire_up_to(SeqNo seq) override;
  [[nodiscard]] const char* name() const noexcept override {
    return profile_.name.c_str();
  }

  [[nodiscard]] SeqNo generated() const noexcept { return next_seq_; }
  [[nodiscard]] const BenchmarkProfile& profile() const noexcept {
    return profile_;
  }

  /// The thread's data/code regions (cache prewarming, tests).
  struct Regions {
    Addr code_base;
    std::uint32_t code_lines;
    Addr hot_base;
    std::uint32_t hot_lines;
    Addr l2_base;
    std::uint32_t l2_lines;
  };
  [[nodiscard]] Regions regions() const noexcept {
    return Regions{code_base_, profile_.icache_lines,
                   hot_base_,  profile_.hot_lines,
                   l2_base_,   profile_.l2_lines};
  }

  /// Snapshot support: serialize/restore the stream's mutable state (the
  /// profile and address-space layout are reconstruction-time constants).
  void save_state(ArchiveWriter& ar) const;
  void load_state(ArchiveReader& ar);
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(rng_, pc_, stream_cursor_, int_cursor_, fp_cursor_, int_last_,
          fp_last_, load_last_, cur_strand_, site_pos_, shadow_stack_, ring_,
          next_seq_, retire_point_);
  }

 private:
  void generate_next();
  [[nodiscard]] InstrClass class_at(Addr pc) const noexcept;
  [[nodiscard]] Addr pick_data_addr(bool& out_is_stream);
  [[nodiscard]] Addr branch_target(Addr pc);
  [[nodiscard]] bool branch_outcome(Addr pc);
  [[nodiscard]] LogReg alloc_int_dst(std::uint32_t strand) noexcept;
  [[nodiscard]] LogReg alloc_fp_dst(std::uint32_t strand) noexcept;
  [[nodiscard]] LogReg strand_int_src(std::uint32_t strand) noexcept;
  [[nodiscard]] LogReg strand_fp_src(std::uint32_t strand) noexcept;
  [[nodiscard]] LogReg old_int_src() noexcept;
  [[nodiscard]] LogReg old_fp_src() noexcept;
  [[nodiscard]] std::uint32_t pick_strand() noexcept;

  BenchmarkProfile profile_;  // lint: transient — ctor config
  Xoshiro256 rng_;
  // per-source salt for branch-site hashing
  std::uint64_t site_salt_;  // lint: transient — ctor config

  // Address-space layout, fixed by the ctor.
  Addr code_base_;    // lint: transient — ctor layout
  Addr code_bytes_;   // lint: transient — ctor layout
  Addr hot_base_;     // lint: transient — ctor layout
  Addr l2_base_;      // lint: transient — ctor layout
  Addr mem_base_;     // lint: transient — ctor layout
  Addr stream_base_;  // lint: transient — ctor layout

  Addr pc_;
  std::uint64_t stream_cursor_ = 0;

  /// Strand-based register model: the 32 int (and 32 fp) logical registers
  /// are partitioned into `strands` groups; each instruction extends one
  /// strand (reads the strand's last value, writes the strand's next reg),
  /// so the dependency graph is `strands` mostly-independent chains.
  static constexpr std::uint32_t kMaxStrands = 8;
  std::uint32_t num_strands_ = 4;  // lint: transient — ctor config
  std::array<std::uint8_t, kMaxStrands> int_cursor_{};   ///< per-strand
  std::array<std::uint8_t, kMaxStrands> fp_cursor_{};
  std::array<LogReg, kMaxStrands> int_last_{};  ///< last dst per strand
  std::array<LogReg, kMaxStrands> fp_last_{};
  std::array<LogReg, kMaxStrands> load_last_{};  ///< last load dst per strand
  std::uint32_t cur_strand_ = 0;

  /// Per-branch-site loop-pattern position, indexed by a pc hash.
  static constexpr std::size_t kSiteTable = 16384;
  std::vector<std::uint16_t> site_pos_;

  /// Shadow call stack so Return targets are architecturally consistent.
  static constexpr std::size_t kShadowStack = 64;
  std::vector<Addr> shadow_stack_;

  // Ring of generated instructions.
  std::vector<TraceInstr> ring_;
  std::uint64_t ring_mask_;  // lint: transient — ctor geometry
  SeqNo next_seq_ = 0;
  SeqNo retire_point_ = 0;
};

}  // namespace mflush
