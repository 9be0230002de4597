#pragma once

#include <array>
#include <cstdint>

#include "common/archive.h"
#include "common/types.h"
#include "pipeline/regfile.h"

namespace mflush {

/// Per-thread logical→physical mapping over the two shared register files.
///
/// Registers 0..31 are integer, 32..63 floating point. Construction maps
/// every architectural register to a fresh ready physical register.
class RenameMap {
 public:
  RenameMap(PhysRegFile& int_regs, PhysRegFile& fp_regs);

  [[nodiscard]] static bool is_fp_reg(LogReg r) noexcept { return r >= 32; }

  [[nodiscard]] PhysReg lookup(LogReg r) const noexcept { return map_[r]; }

  /// Can a destination of this class be allocated right now?
  [[nodiscard]] bool can_rename(LogReg dst) const noexcept;

  /// Allocate a new physical register for `dst`; returns {new, previous}.
  struct Renamed {
    PhysReg fresh;
    PhysReg previous;
  };
  [[nodiscard]] Renamed rename_dst(LogReg dst);

  /// Squash unwind: restore `dst` to `previous`, freeing `fresh`.
  void unwind(LogReg dst, PhysReg fresh, PhysReg previous);

  /// Commit: the previous mapping is dead, free it.
  void commit_release(LogReg dst, PhysReg previous);

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(map_);
  }

 private:
  [[nodiscard]] PhysRegFile& file_for(LogReg r) noexcept {
    return is_fp_reg(r) ? fp_ : int_;
  }

  PhysRegFile& int_;
  PhysRegFile& fp_;
  std::array<PhysReg, kNumLogicalRegs> map_{};
};

}  // namespace mflush
