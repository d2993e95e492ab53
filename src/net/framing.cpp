#include "net/framing.h"

namespace flexran::net {

std::vector<std::uint8_t> frame_message(std::span<const std::uint8_t> payload) {
  util::ByteBuffer out;
  frame_into(out, payload);
  return out.take();
}

void frame_into(util::ByteBuffer& out, std::span<const std::uint8_t> payload) {
  out.write_u32(static_cast<std::uint32_t>(payload.size()));
  out.write_bytes(payload);
}

util::Status FrameAssembler::feed(std::span<const std::uint8_t> data, const FrameFn& on_frame) {
  if (poisoned_) {
    return util::Error::decode_failure("frame assembler poisoned by earlier oversized frame");
  }
  buffer_.write_bytes(data);
  while (buffer_.readable() >= kFrameHeaderBytes) {
    const std::size_t mark = buffer_.read_position();
    const std::uint32_t length = buffer_.read_u32().value();
    if (length > kMaxFrameBytes) {
      // Leave the header buffered at the mark so the failure state is
      // deterministic, and poison: stream framing cannot recover from a
      // corrupt length prefix.
      buffer_.seek(mark);
      poisoned_ = true;
      return util::Error::decode_failure("frame length exceeds limit");
    }
    if (buffer_.readable() < length) {
      // Partial frame: O(1) restore to the header and wait for more bytes.
      buffer_.seek(mark);
      break;
    }
    const auto payload = buffer_.remaining().first(length);
    buffer_.skip(length);
    on_frame(payload);
  }
  buffer_.compact();
  return {};
}

}  // namespace flexran::net
