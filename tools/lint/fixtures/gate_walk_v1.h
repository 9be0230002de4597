// Gate fixture (walk form): gate_wire_v1.h's Message with its save/load
// twins replaced by one fields() walk, byte for byte. selftest.py checks it
// against the gate_wire_v1.h base as is (silent: the gate reads the base's
// writer into the same tokens), then with the walk reordered, a field type
// changed, the array widened or Tag's pad resized — each must fail the
// gate — and with Tag's pad made implicit again, which must stay silent.
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
