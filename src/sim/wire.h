#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/archive.h"
#include "common/envelope.h"

/// MFLUSNET — the mflushd wire protocol.
///
/// A connection is a stream of self-delimiting frames
/// (envelope::frame, common/envelope.h):
///
///   [u32 payload_len][payload bytes][u64 envelope::checksum(payload)]
///
/// and each payload is a flat archive:
///
///   u64 magic "MFLUSNET" | u32 kProtocolVersion | Message fields
///
/// The length prefix is bounded by kMaxFrameBytes so a corrupt prefix can
/// never stall a reader waiting for gigabytes; the trailing checksum
/// rejects bit damage; magic + version reject cross-protocol and
/// cross-release traffic. A frame that fails any check is a protocol
/// error for the whole connection — framing is lost, so the peer closes
/// rather than resynchronize.
///
/// Any change to the frame layout or to Message's serialized fields must
/// bump kProtocolVersion (enforced by tools/lint/check_format_version.py,
/// domain 'daemon').
///
/// Conversation shape (client speaks first; one request per connection,
/// except SUBMIT+follow which streams):
///
///   SUBMIT(blob=spec, follow)  -> SUBMITTED(campaign, total)
///                                 [RESULT(job_id, blob=result)...]  if follow
///                                 DONE(text=state, counters)        if follow
///   STATUS(campaign)           -> STATUS_REPLY | ERROR
///   CANCEL(campaign)           -> OK | ERROR
///   LIST                       -> OK(text = one campaign per line)
///   SHUTDOWN                   -> OK, then the daemon drains and exits
namespace mflush::daemon {

/// v2: frames end with the word-wise envelope::checksum instead of FNV-1a.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// "MFLUSNET" little-endian.
inline constexpr std::uint64_t kFrameMagic = 0x54454e53554c464dull;

/// Upper bound on a payload. Generous (a RESULT carries one encoded
/// RunResult, a SUBMIT one spec) but small enough that a damaged length
/// prefix fails fast instead of waiting on 4 GiB that will never arrive.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  // client -> daemon
  kSubmit = 1,
  kStatus = 2,
  kCancel = 3,
  kList = 4,
  kShutdown = 5,
  // daemon -> client
  kSubmitted = 6,
  kStatusReply = 7,
  kResult = 8,
  kDone = 9,
  kError = 10,
  kOk = 11,
};

[[nodiscard]] const char* type_name(MsgType t) noexcept;

/// One frame's payload. A single struct for every message type keeps the
/// codec trivial; unused fields stay at their defaults and cost a few
/// bytes on the wire. Meaning per type:
///
///   campaign  target/subject campaign id (16-hex spec content hash)
///   text      DONE: terminal state ("finished"/"failed: why"/"cancelled")
///             ERROR: diagnostic; OK(list): one campaign per line
///   job_id    RESULT: the result's job id
///   total     expected result count; done = results durable so far
///   executed  jobs this daemon actually ran; cached = served from the
///             shared result cache (cross-tenant dedup shows up here)
///   follow    SUBMIT: stream RESULT/DONE instead of detaching
///   blob      SUBMIT: ExperimentSpec::to_bytes(); RESULT: one-entry
///             worker::encode_results() archive (checksummed end to end)
struct Message {
  MsgType type = MsgType::kError;
  std::string campaign;
  std::string text;
  std::uint32_t job_id = 0;
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t executed = 0;
  std::uint64_t cached = 0;
  std::uint8_t follow = 0;
  std::vector<std::uint8_t> blob;

  template <class Ar>
  void fields(Ar& ar) {
    ar.enum_u8(type, MsgType::kSubmit, MsgType::kOk, "message type");
    ar.io(campaign, text, job_id, total, done, executed, cached, follow, blob);
  }
};

/// Encode one complete frame (length prefix + payload + checksum).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& msg);

/// kNeedMore: read more bytes; kFrame: one frame decoded, `consumed` bytes
/// may be dropped; kBad: protocol error — close the connection.
using ExtractStatus = envelope::FrameStatus;

struct Extract {
  ExtractStatus status = ExtractStatus::kNeedMore;
  Message msg;                ///< valid iff status == kFrame
  std::size_t consumed = 0;   ///< bytes of `buffer` the frame occupied
  std::string error;          ///< set iff status == kBad
};

/// Try to decode the first frame in `buffer` (incremental: call again as
/// bytes arrive). Never throws — damage comes back as kBad.
[[nodiscard]] Extract try_extract(std::span<const std::uint8_t> buffer);

/// Blocking frame I/O over a connected stream socket.
void send_frame(int fd, const Message& msg);

/// Read one frame, pulling bytes into `buffer` (which carries any
/// read-ahead between calls — always pass the same buffer for one fd).
/// Returns nullopt on clean EOF at a frame boundary; throws on mid-frame
/// EOF or a damaged frame.
[[nodiscard]] std::optional<Message> read_frame(
    int fd, std::vector<std::uint8_t>& buffer);

}  // namespace mflush::daemon
