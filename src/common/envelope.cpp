#include "common/envelope.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace mflush::envelope {
namespace {

template <class T>
T read_at(const std::uint8_t* at) {
  T v{};
  std::memcpy(&v, at, sizeof(T));
  return v;
}

// Odd multipliers: multiplying by one is a bijection mod 2^64.
constexpr std::uint64_t kM1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kM2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kM3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kM4 = 0x85ebca77c2b2ae63ull;

/// One lane step; a bijection of `word` for a fixed lane and of `lane`
/// for a fixed word.
constexpr std::uint64_t step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kM2, 31) * kM1;
}

/// Fold `v` into `acc`; a bijection of each for the other fixed.
constexpr std::uint64_t fold(std::uint64_t acc, std::uint64_t v) {
  return std::rotl(acc ^ step(0, v), 27) * kM1 + kM4;
}

}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  constexpr std::size_t kStripe = 4 * kWord;
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  // Words are read as the archive writes them: the host is little-endian.
  std::uint64_t lanes[4] = {kM1 + kM2, kM2, 0, 0 - kM1};
  std::size_t at = 0;
  for (; at + kStripe <= n; at += kStripe) {
    for (std::size_t l = 0; l < 4; ++l)
      lanes[l] = step(lanes[l], read_at<std::uint64_t>(p + at + l * kWord));
  }
  std::uint64_t acc = kM3;
  for (const std::uint64_t lane : lanes) acc = fold(acc, lane);
  for (; at + kWord <= n; at += kWord)
    acc = fold(acc, read_at<std::uint64_t>(p + at));
  std::uint64_t tail = 0;
  if (at < n) std::memcpy(&tail, p + at, n - at);
  acc = fold(fold(acc, tail), n);
  // Avalanche: xor-shifts and odd multiplies, each a bijection.
  acc ^= acc >> 33;
  acc *= kM2;
  acc ^= acc >> 29;
  acc *= kM3;
  acc ^= acc >> 32;
  return acc;
}

void expect_header(ArchiveReader& ar, std::uint64_t magic,
                   std::uint32_t version, const std::string& what) {
  if (ar.get<std::uint64_t>() != magic)
    throw std::runtime_error(what + ": bad magic");
  if (const auto v = ar.get<std::uint32_t>(); v != version) {
    throw std::runtime_error(what + ": format version " + std::to_string(v) +
                             " incompatible with " + std::to_string(version));
  }
}

std::span<const std::uint8_t> unseal(std::span<const std::uint8_t> bytes,
                                     const std::string& what) {
  constexpr std::size_t kSum = sizeof(std::uint64_t);
  if (bytes.size() < kSum) throw std::runtime_error(what + ": truncated");
  const auto body = bytes.first(bytes.size() - kSum);
  if (checksum(body) != read_at<std::uint64_t>(bytes.data() + body.size()))
    throw std::runtime_error(what + ": checksum mismatch (corrupt?)");
  return body;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
  ArchiveWriter out;
  out.put(static_cast<std::uint32_t>(payload.size()));
  out.put_bytes(payload.data(), payload.size());
  out.put(checksum(payload));
  return out.take();
}

Unframed unframe(std::span<const std::uint8_t> buffer, std::size_t max_len) {
  Unframed out;
  if (buffer.size() < sizeof(std::uint32_t)) return out;
  const auto len = read_at<std::uint32_t>(buffer.data());
  const std::size_t whole = sizeof(len) + len + sizeof(std::uint64_t);
  if (len == 0 || len > max_len) {
    out.status = FrameStatus::kBad;
    out.error = "frame length " + std::to_string(len) + " out of range";
  } else if (buffer.size() >= whole) {
    const auto payload = buffer.subspan(sizeof(len), len);
    if (checksum(payload) ==
        read_at<std::uint64_t>(buffer.data() + sizeof(len) + len)) {
      out = {FrameStatus::kFrame, payload, whole, {}};
    } else {
      out.status = FrameStatus::kBad;
      out.error = "frame checksum mismatch";
    }
  }
  return out;
}

}  // namespace mflush::envelope
