#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Fully-associative TLB with true LRU (Fig. 1: 512 entries, 300-cycle
/// miss penalty, 8 KB pages).
///
/// Implemented as a hash map + intrusive LRU list so lookups stay O(1)
/// even at 512 entries.
class Tlb {
 public:
  Tlb(std::uint32_t entries, std::uint32_t page_bytes);

  /// Translate; returns true on hit. A miss installs the page (the page
  /// walk itself is charged by the caller via the configured penalty).
  bool access(Addr addr);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  void reset_stats() noexcept {
    hits_ = 0;
    misses_ = 0;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(nodes_, map_, head_, tail_, used_, hits_, misses_);
  }

  static constexpr std::uint32_t kNull = 0xffffffff;

  /// Serialized by raw memcpy (8 + 4 + 4 bytes — no padding).
  struct Node {
    Addr page = 0;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
  };

 private:
  void move_to_front(std::uint32_t idx) noexcept;
  void detach(std::uint32_t idx) noexcept;
  void attach_front(std::uint32_t idx) noexcept;

  std::uint32_t capacity_;    // lint: transient — ctor geometry
  std::uint32_t page_shift_;  // lint: transient — ctor geometry
  std::vector<Node> nodes_;
  std::unordered_map<Addr, std::uint32_t> map_;
  std::uint32_t head_ = kNull;  ///< MRU
  std::uint32_t tail_ = kNull;  ///< LRU
  std::uint32_t used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mflush
