#include "common/envelope.h"

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

}  // namespace

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
  if (fnv1a(body) != read_at<std::uint64_t>(bytes.data() + body.size()))
    throw std::runtime_error(what + ": checksum mismatch (corrupt?)");
  return body;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
  ArchiveWriter out;
  out.put(static_cast<std::uint32_t>(payload.size()));
  out.put_bytes(payload.data(), payload.size());
  out.put(fnv1a(payload));
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
    if (fnv1a(payload) ==
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
