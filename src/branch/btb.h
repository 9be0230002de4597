#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Branch Target Buffer: 256 entries, 4-way set associative (Fig. 1),
/// true-LRU within a set.
class Btb {
 public:
  Btb(std::uint32_t entries, std::uint32_t ways);

  /// Predicted target for `pc`, if any.
  [[nodiscard]] std::optional<Addr> lookup(Addr pc);

  /// Install/refresh the target of a resolved taken branch.
  void update(Addr pc, Addr target);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(entries_, tick_, hits_, misses_);
  }

  /// Explicit padding because entries_ is serialized by raw memcpy, which
  /// accepts only records without padding holes (RawArchivable).
  struct Entry {
    Addr tag = 0;
    Addr target = 0;
    std::uint64_t lru = 0;  ///< larger = more recently used
    bool valid = false;
    std::uint8_t _pad[7] = {};  ///< explicit tail padding: canonical bytes
  };

 private:
  [[nodiscard]] std::size_t set_of(Addr pc) const noexcept;

  std::uint32_t ways_;      // lint: transient — ctor geometry
  std::uint32_t num_sets_;  // lint: transient — ctor geometry
  std::vector<Entry> entries_;  ///< sets * ways, row-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mflush
