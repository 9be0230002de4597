#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Geometry of a set-associative cache (or one bank slice of one).
struct CacheGeometry {
  std::uint32_t size_bytes = 0;
  std::uint32_t ways = 1;
  std::uint32_t line_bytes = 64;
  std::uint32_t banks = 1;

  [[nodiscard]] std::uint32_t num_sets() const noexcept {
    return size_bytes / (ways * line_bytes);
  }
};

/// Result of a tag-array fill: identifies the evicted victim, if any.
struct EvictInfo {
  bool evicted = false;
  bool victim_dirty = false;
  Addr victim_line = 0;  ///< line-aligned byte address
};

/// Set-associative tag array with true LRU and write-back/write-allocate
/// semantics. Only tags and dirty bits are modelled (timing simulator: data
/// values do not exist).
class SetAssocCache {
 public:
  explicit SetAssocCache(CacheGeometry g);

  /// Tag lookup; updates LRU and the dirty bit on a write hit.
  [[nodiscard]] bool access(Addr addr, bool is_write);

  /// Lookup without any state change.
  [[nodiscard]] bool probe(Addr addr) const;

  /// Install a line (after a miss completes); returns the victim.
  EvictInfo fill(Addr addr, bool dirty);

  /// Line-aligned address and bank index helpers.
  [[nodiscard]] Addr line_of(Addr addr) const noexcept {
    return addr & ~static_cast<Addr>(geom_.line_bytes - 1);
  }
  [[nodiscard]] std::uint32_t bank_of(Addr addr) const noexcept {
    return static_cast<std::uint32_t>((addr >> line_shift_) &
                                      (geom_.banks - 1));
  }

  [[nodiscard]] const CacheGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  void reset_stats() noexcept {
    hits_ = 0;
    misses_ = 0;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(lines_, tick_, hits_, misses_);
  }

  /// Explicit padding because lines_ is serialized by raw memcpy, which
  /// accepts only records without padding holes (RawArchivable).
  struct Line {
    Addr tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
    std::uint8_t _pad[6] = {};  ///< explicit tail padding: canonical bytes
  };

 private:
  /// Set index on the cycle-loop hot path. Line size is always a power of
  /// two, so the division is a shift; when the set count is also a power of
  /// two (every L1 geometry) the modulo collapses to a precomputed mask.
  /// Non-power-of-two set counts (the paper's 12-way L2 slices) keep the
  /// modulo — same mapping as the original division/modulo implementation.
  [[nodiscard]] std::size_t set_index(Addr addr) const noexcept {
    const Addr line_index = addr >> line_shift_;
    return static_cast<std::size_t>(
        pow2_sets_ ? (line_index & set_mask_) : (line_index % sets_));
  }

  CacheGeometry geom_;    // lint: transient — ctor geometry
  std::uint32_t sets_;    // lint: transient — ctor geometry
  // log2(line_bytes)
  std::uint32_t line_shift_ = 6;  // lint: transient — ctor geometry
  // sets_ - 1 when pow2_sets_
  Addr set_mask_ = 0;        // lint: transient — ctor geometry
  bool pow2_sets_ = false;   // lint: transient — ctor geometry
  std::vector<Line> lines_;  ///< sets * ways row-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mflush
