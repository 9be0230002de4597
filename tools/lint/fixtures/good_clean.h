// Fixture: a fully clean serializable class. Expected findings: none.
#pragma once

#include <cstdint>
#include <vector>

#include "tools/lint/fixtures/archive_stub.h"

namespace fixture {

/// Raw-memcpy'd record with explicit zero-initialized padding: 8 + 4 + 4.
struct Rec {
  std::uint64_t key = 0;
  std::uint32_t count = 0;
  std::uint8_t _pad[4] = {};
};

class Good {
 public:
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(recs_, total_);
  }

 private:
  std::uint32_t capacity_ = 0;  // lint: transient — ctor config
  std::vector<Rec> recs_;
  std::uint64_t total_ = 0;
};

}  // namespace fixture
