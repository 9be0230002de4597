#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/archive.h"

/// The framing every checksummed binary format shares, written once.
///
/// A *sealed* format (snapshot, spec, worker job/result file, warm-store
/// entry) is `u64 magic | u32 version | body | u64 checksum(all before)`.
/// A *framed* record (an MFLUSNET frame) is
/// `u32 len | payload | u64 checksum(payload)`. Both layouts, and the
/// checksum itself, are part of the bytes of every format built on them:
/// changing any of them bumps every one of those formats' versions.
namespace mflush::envelope {

inline constexpr std::size_t kHeaderBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);

inline void put_header(ArchiveWriter& ar, std::uint64_t magic,
                       std::uint32_t version) {
  ar.put(magic);
  ar.put(version);
}

/// Throws std::runtime_error "<what>: bad magic" or "<what>: format
/// version N incompatible with M".
void expect_header(ArchiveReader& ar, std::uint64_t magic,
                   std::uint32_t version, const std::string& what);

/// The trailing checksum of every sealed and framed format: four lanes
/// over the bytes read as 8-byte little-endian words, then the lanes, any
/// words after the last 32-byte stripe, the zero-padded tail and the
/// length folded into one value. Every lane step and every fold is a
/// bijection of the changed input, so a change confined to one aligned
/// word (any flipped bit) or to the tail always changes the checksum.
/// Content keys and test digests use fnv1a (common/archive.h) instead.
[[nodiscard]] std::uint64_t checksum(
    std::span<const std::uint8_t> bytes) noexcept;

/// Append the checksum of everything written so far.
inline void seal(ArchiveWriter& ar) { ar.put(checksum(ar.bytes())); }

/// The body before a verified trailing checksum, as a view into `bytes`;
/// throws naming `what` when `bytes` is short or the checksum mismatches.
[[nodiscard]] std::span<const std::uint8_t> unseal(
    std::span<const std::uint8_t> bytes, const std::string& what);

[[nodiscard]] std::vector<std::uint8_t> frame(
    std::span<const std::uint8_t> payload);

enum class FrameStatus : std::uint8_t { kNeedMore, kFrame, kBad };

struct Unframed {
  FrameStatus status = FrameStatus::kNeedMore;
  std::span<const std::uint8_t> payload;  ///< kFrame: a view into the buffer
  std::size_t consumed = 0;               ///< kFrame: bytes the frame spans
  std::string error;                      ///< kBad: what is wrong
};

/// Split the first frame off `buffer`: kNeedMore for a (possibly empty)
/// prefix of one; kBad for a checksum mismatch or a length of 0 or above
/// `max_len` — at once, so a damaged prefix never waits for bytes that
/// will not come.
[[nodiscard]] Unframed unframe(std::span<const std::uint8_t> buffer,
                               std::size_t max_len);

}  // namespace mflush::envelope
