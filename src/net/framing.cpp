#include "net/framing.h"

namespace flexran::net {

void frame_into(util::ByteBuffer& out, std::span<const std::uint8_t> payload) {
  out.write_u32(static_cast<std::uint32_t>(payload.size()));
  out.write_bytes(payload);
}

util::Status FrameAssembler::feed(std::span<const std::uint8_t> data, const FrameFn& on_frame) {
  if (poisoned_) {
    return util::Error::decode_failure("frame assembler poisoned by earlier oversized frame");
  }
  // With nothing buffered, whole frames are handed out of `data` itself and
  // only a trailing partial frame is copied; otherwise `data` joins the
  // buffered bytes and frames are handed out of the buffer.
  const bool buffered = buffer_.readable() > 0;
  if (buffered) buffer_.write_bytes(data);
  const std::span<const std::uint8_t> stream = buffered ? buffer_.remaining() : data;
  std::size_t used = 0;
  util::Status status;
  while (stream.size() - used >= kFrameHeaderBytes) {
    const std::uint8_t* header = stream.data() + used;
    const std::uint32_t length = static_cast<std::uint32_t>(header[0]) |
                                 static_cast<std::uint32_t>(header[1]) << 8 |
                                 static_cast<std::uint32_t>(header[2]) << 16 |
                                 static_cast<std::uint32_t>(header[3]) << 24;
    if (length > kMaxFrameBytes) {
      // The header stays buffered, un-consumed, so the failure state is
      // deterministic, and the assembler is poisoned: stream framing cannot
      // recover from a corrupt length prefix.
      poisoned_ = true;
      status = util::Error::decode_failure("frame length exceeds limit");
      break;
    }
    if (stream.size() - used - kFrameHeaderBytes < length) break;  // partial frame
    on_frame(stream.subspan(used + kFrameHeaderBytes, length));
    used += kFrameHeaderBytes + length;
  }
  if (buffered) {
    buffer_.skip(used);
    buffer_.compact();
  } else {
    buffer_.write_bytes(stream.subspan(used));
  }
  return status;
}

}  // namespace flexran::net
