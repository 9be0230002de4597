// Fixture: a format that seals and checks its own trailing checksum
// instead of going through common/envelope.h. Expected findings: 4 (a
// hand-written seal and a hand-written comparison, once with FNV-1a and
// once with the envelope's own checksum).
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace fixture {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

struct Sink {
  std::vector<std::uint8_t> buf;
  void put(std::uint64_t v);
};

void seal_by_hand(Sink& out) { out.put(fnv1a(out.buf)); }

void check_by_hand(std::span<const std::uint8_t> bytes) {
  const auto body = bytes.first(bytes.size() - 8);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + body.size(), sizeof(stored));
  if (fnv1a(body) != stored) throw std::runtime_error("checksum mismatch");
}

namespace envelope {
std::uint64_t checksum(std::span<const std::uint8_t> bytes);
}

void seal_with_the_envelope_sum(Sink& out) {
  out.put(envelope::checksum(out.buf));
}

bool frame_ok(std::span<const std::uint8_t> payload, std::uint64_t stored) {
  return stored == envelope::checksum(payload);
}

// A content hash is not a trailing checksum: not a finding.
std::uint64_t key_of(std::span<const std::uint8_t> bytes) {
  return fnv1a(bytes);
}

}  // namespace fixture
