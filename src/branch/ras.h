#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Return Address Stack, 100 entries, replicated per thread (Fig. 1 *).
///
/// The stack is a circular buffer with a top-of-stack pointer; squash
/// recovery restores the pointer from a checkpoint (standard low-cost RAS
/// repair — entry contents clobbered by the wrong path stay clobbered, which
/// is exactly the behaviour mispredicted returns exhibit in hardware).
class Ras {
 public:
  explicit Ras(std::uint32_t entries);

  void push(Addr return_pc) noexcept;
  [[nodiscard]] Addr pop() noexcept;  ///< returns 0 when empty-ish

  struct Checkpoint {
    std::uint32_t top;
    std::uint32_t depth;
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return {top_, depth_};
  }
  void restore(Checkpoint c) noexcept {
    top_ = c.top;
    depth_ = c.depth;
  }

  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(stack_.size());
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(stack_, top_, depth_);
  }

 private:
  std::vector<Addr> stack_;
  std::uint32_t top_ = 0;    ///< next push slot
  std::uint32_t depth_ = 0;  ///< live entries (saturates at capacity)
};

}  // namespace mflush
