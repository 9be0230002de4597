// Fixture: save() writes a_ then b_; load() reads b_ then a_. The archive
// has no framing, so this silently swaps the two values on restore — the
// drift a field list written twice invites. Expected findings: 1 (twins
// instead of one fields() walk).
#pragma once

#include <cstdint>

#include "tools/lint/fixtures/archive_stub.h"

namespace fixture {

class Reordered {
 public:
  void save(ArchiveWriter& ar) const {
    ar.put(a_);
    ar.put(b_);
  }
  void load(ArchiveReader& ar) {
    b_ = ar.get<std::uint64_t>();
    a_ = ar.get<std::uint64_t>();
  }

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

}  // namespace fixture
