// Gate fixture (bad head): gate_wire_v1.h with the serialized field order
// swapped but kProtocolVersion left at 1 — the exact mistake the gate
// exists to catch (old peers would misread every frame).
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

  void save(ArchiveWriter& ar) const {
    ar.put(b);
    ar.put(a);
    ar.put(c);
    ar.put(t);
  }
  static Message load(ArchiveReader& ar) {
    Message m;
    m.b = ar.get<std::uint64_t>();
    m.a = ar.get<std::uint32_t>();
    m.c = ar.get<std::array<std::uint32_t, 2>>();
    m.t = ar.get<Tag>();
    return m;
  }
};

}  // namespace mflush::daemon
