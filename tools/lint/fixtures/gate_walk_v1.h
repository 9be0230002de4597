// Gate fixture: a miniature wire message owned by the 'daemon'
// format-version domain. selftest.py commits it as src/sim/wire.h in a
// scratch repository, then checks edited copies against it: the walk
// reordered (failing, and passing once kProtocolVersion is bumped), a field
// type changed, the array widened, Tag's pad resized or an unresolvable
// argument added — each must fail the gate — and Tag's pad made implicit,
// which must stay silent.
#pragma once

#include <array>
#include <cstdint>

namespace mflush::daemon {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// A raw (memcpy'd) record: its layout is part of the format.
struct Tag {
  std::uint8_t kind = 0;
  std::uint8_t _pad[3] = {};
  std::uint32_t id = 0;
};

struct Message {
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::array<std::uint32_t, 2> c{};
  Tag t{};

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(a, b, c, t);
  }
};

}  // namespace mflush::daemon
