#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// One class (int or fp) of shared physical registers: free list + ready
/// bits. 320 int + 320 fp registers are shared by both SMT contexts of a
/// core (Fig. 1) — running out of them is one of the clogs FLUSH relieves.
class PhysRegFile {
 public:
  explicit PhysRegFile(std::uint32_t num_regs);

  [[nodiscard]] bool has_free() const noexcept { return !free_.empty(); }
  [[nodiscard]] std::uint32_t free_count() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// Allocate a register, initially not ready. Caller must check has_free().
  [[nodiscard]] PhysReg alloc();

  void release(PhysReg r);

  void set_ready(PhysReg r) noexcept { ready_[r] = 1; }
  void clear_ready(PhysReg r) noexcept { ready_[r] = 0; }
  [[nodiscard]] bool ready(PhysReg r) const noexcept {
    return r == kNoPhysReg || ready_[r] != 0;
  }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(ready_.size());
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(ready_, free_, allocated_);
  }

 private:
  std::vector<std::uint8_t> ready_;
  std::vector<PhysReg> free_;
  std::vector<std::uint8_t> allocated_;  ///< debug double-free guard
};

}  // namespace mflush
