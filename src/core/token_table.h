#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"

namespace mflush {

/// Flat token→value table for the policies' outstanding-load tracking.
///
/// The policies touch this on every load lifecycle event and *iterate* it
/// every cycle (the Detection Moment scan); a handful of in-flight loads
/// in a contiguous vector beats a node-based hash map on both. Lookup and
/// erase are linear over the live entries (bounded by the LSQ), erase is
/// swap-with-last. Iteration order is therefore insertion order perturbed
/// by erases — deterministic, and the policies' trigger logic sorts by
/// (issue, token) before acting, so order never influences behaviour.
template <typename T>
class TokenTable {
 public:
  struct Entry {
    std::uint64_t token;
    T value;
  };

  void emplace(std::uint64_t token, const T& value) {
    entries_.push_back(Entry{token, value});
  }

  [[nodiscard]] T* find(std::uint64_t token) noexcept {
    for (Entry& e : entries_)
      if (e.token == token) return &e.value;
    return nullptr;
  }

  void erase(std::uint64_t token) noexcept {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].token == token) {
        entries_[i] = entries_.back();
        entries_.pop_back();
        return;
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(entries_);
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace mflush
