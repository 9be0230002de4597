#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "pipeline/uop.h"

namespace mflush {

/// Per-thread reorder buffer: a bounded circular FIFO of uop handles
/// (256 entries, replicated per thread — Fig. 1 *).
class Rob {
 public:
  explicit Rob(std::uint32_t capacity);

  [[nodiscard]] bool full() const noexcept { return size_ == cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }

  void push_back(UopHandle h);
  [[nodiscard]] UopHandle front() const noexcept { return buf_[head_]; }
  void pop_front() noexcept;
  [[nodiscard]] UopHandle back() const noexcept;
  void pop_back() noexcept;

  /// i-th oldest entry, 0-based.
  [[nodiscard]] UopHandle at(std::uint32_t i) const noexcept {
    return buf_[(head_ + i) % cap_];
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(buf_, head_, size_);
  }

 private:
  std::vector<UopHandle> buf_;
  std::uint32_t cap_;  // lint: transient — ctor capacity
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace mflush
