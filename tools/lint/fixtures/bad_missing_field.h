// Fixture: `dropped_` is missing from the fields() walk and is not
// annotated transient. Expected findings: 1.
#pragma once

#include <cstdint>

#include "tools/lint/fixtures/archive_stub.h"

namespace fixture {

class MissingField {
 public:
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(kept_);
  }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace fixture
