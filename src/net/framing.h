// Length-prefixed message framing over stream transports: 4-byte
// little-endian length followed by the payload (an encoded FlexRAN protocol
// envelope). FrameAssembler reassembles messages from an arbitrary-chunked
// byte stream (TCP segmentation).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace flexran::net {

constexpr std::size_t kFrameHeaderBytes = 4;
/// Upper bound on a single frame; protects against corrupt length prefixes.
constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;

/// Appends a framed copy of `payload` to `out`. The caller owns `out` and
/// clears it between sends (or batches several frames before flushing); with
/// a warm buffer this allocates nothing.
void frame_into(util::ByteBuffer& out, std::span<const std::uint8_t> payload);

/// Incremental frame reassembly. A feed that starts on a frame boundary
/// (nothing buffered) hands its whole frames out without copying them and
/// buffers only a trailing partial frame; a feed that continues a buffered
/// partial frame appends to the buffer and hands frames out of it.
class FrameAssembler {
 public:
  /// Frame payloads are handed out as spans into the fed bytes or into the
  /// assembler's internal buffer. The span is valid only for the duration
  /// of the callback, and the callback must not feed this assembler
  /// re-entrantly; receivers that need to keep bytes past the callback copy
  /// them (decoding into an owned message counts).
  using FrameFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Feed raw stream bytes; complete frames are handed to `on_frame` in
  /// order. Returns an error and poisons the assembler on a corrupt length:
  /// after a frame claims more than kMaxFrameBytes the stream offset can no
  /// longer be trusted, so every later feed() fails deterministically (the
  /// offending header stays buffered, un-consumed) for the rest of the
  /// assembler's life. Owners that reuse assemblers across fault injections
  /// (SimTransport) key off this instead of resynchronizing mid-stream.
  util::Status feed(std::span<const std::uint8_t> data, const FrameFn& on_frame);

  std::size_t buffered() const { return buffer_.readable(); }
  bool poisoned() const { return poisoned_; }

 private:
  util::ByteBuffer buffer_;
  bool poisoned_ = false;
};

}  // namespace flexran::net
