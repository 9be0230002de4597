#include "sim/wire.h"

#include <stdexcept>

#include "common/sockio.h"

namespace mflush::daemon {
namespace {

Extract bad(std::string error) {
  Extract e;
  e.status = ExtractStatus::kBad;
  e.error = std::move(error);
  return e;
}

}  // namespace

const char* type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kSubmit:
      return "SUBMIT";
    case MsgType::kStatus:
      return "STATUS";
    case MsgType::kCancel:
      return "CANCEL";
    case MsgType::kList:
      return "LIST";
    case MsgType::kShutdown:
      return "SHUTDOWN";
    case MsgType::kSubmitted:
      return "SUBMITTED";
    case MsgType::kStatusReply:
      return "STATUS_REPLY";
    case MsgType::kResult:
      return "RESULT";
    case MsgType::kDone:
      return "DONE";
    case MsgType::kError:
      return "ERROR";
    case MsgType::kOk:
      return "OK";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  ArchiveWriter payload;
  envelope::put_header(payload, kFrameMagic, kProtocolVersion);
  payload.io(msg);
  if (payload.bytes().size() > kMaxFrameBytes)
    throw std::runtime_error("MFLUSNET frame exceeds " +
                             std::to_string(kMaxFrameBytes) + " bytes");
  return envelope::frame(payload.bytes());
}

Extract try_extract(std::span<const std::uint8_t> buffer) {
  Extract out;
  const envelope::Unframed u = envelope::unframe(buffer, kMaxFrameBytes);
  if (u.status == ExtractStatus::kNeedMore) return out;
  if (u.status == ExtractStatus::kBad) return bad("MFLUSNET " + u.error);
  try {
    ArchiveReader ar(u.payload);
    envelope::expect_header(ar, kFrameMagic, kProtocolVersion, "frame");
    ar.io(out.msg);
    if (!ar.done()) return bad("MFLUSNET frame has trailing bytes");
  } catch (const std::exception& e) {
    return bad(std::string("MFLUSNET ") + e.what());
  }
  out.status = ExtractStatus::kFrame;
  out.consumed = u.consumed;
  return out;
}

void send_frame(int fd, const Message& msg) {
  sockio::write_all(fd, encode_frame(msg));
}

std::optional<Message> read_frame(int fd, std::vector<std::uint8_t>& buffer) {
  for (;;) {
    Extract e = try_extract(buffer);
    if (e.status == ExtractStatus::kBad) throw std::runtime_error(e.error);
    if (e.status == ExtractStatus::kFrame) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(e.consumed));
      return std::move(e.msg);
    }
    if (sockio::read_some(fd, buffer) == 0) {
      if (buffer.empty()) return std::nullopt;
      throw std::runtime_error("connection closed mid-frame (" +
                               std::to_string(buffer.size()) +
                               " byte(s) of partial frame)");
    }
  }
}

}  // namespace mflush::daemon
