#include "proto/wire.h"

#include <cstring>

namespace flexran::proto {

std::size_t varint_size(std::uint64_t value) {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

// ------------------------------------------------------------------ encoder

void WireEncoder::varint_slow(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.write_u8(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buffer_.write_u8(static_cast<std::uint8_t>(value));
}

std::size_t WireEncoder::begin_message(int field) {
  tag(field, WireType::length_delimited);
  buffer_.write_u8(0);  // length placeholder, backpatched by end_message
  return buffer_.size();
}

void WireEncoder::end_message(std::size_t mark) {
  const std::size_t length = buffer_.size() - mark;
  const std::size_t prefix_bytes = varint_size(length);
  if (prefix_bytes > 1) {
    // The 1-byte placeholder is too narrow: open a gap right after it and
    // let the payload slide right. The format stays minimal-varint, so the
    // bytes match what a fresh sub-encoder + field_bytes would have produced.
    buffer_.insert_zeros(mark, prefix_bytes - 1);
  }
  std::uint8_t* prefix = buffer_.mutable_data() + (mark - 1);
  std::uint64_t value = length;
  while (value >= 0x80) {
    *prefix++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *prefix = static_cast<std::uint8_t>(value);
}

void WireEncoder::field_double(int field, double value) {
  tag(field, WireType::fixed64);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  buffer_.write_u64(bits);
}

void WireEncoder::field_bytes(int field, std::span<const std::uint8_t> bytes) {
  tag(field, WireType::length_delimited);
  varint(bytes.size());
  buffer_.write_bytes(bytes);
}

void WireEncoder::field_string(int field, std::string_view text) {
  tag(field, WireType::length_delimited);
  varint(text.size());
  buffer_.write_string(text);
}

// ------------------------------------------------------------------ decoder

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::none: return "ok";
    case DecodeError::truncated: return "truncated";
    case DecodeError::varint_too_long: return "varint too long";
    case DecodeError::bad_wire_type: return "unsupported wire type";
    case DecodeError::bad_field_number: return "invalid field number";
    case DecodeError::wrong_wire_type: return "wrong wire type";
  }
  return "?";
}

void WireDecoder::fail(DecodeError error) {
  if (error_ != DecodeError::none) return;
  error_ = error;
  error_field_ = field_;
  pos_ = end_;
}

std::uint64_t WireDecoder::varint_slow() {
  // Unrolled while a full 10-byte varint fits; the byte-at-a-time loop
  // below handles the message tail and every malformed case.
  if (end_ - pos_ >= 10) {
    const std::uint8_t* p = pos_;
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = *p++;
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) {
        pos_ = p;
        return value;
      }
    }
  }
  std::uint64_t value = 0;
  for (int shift = 0; pos_ < end_; shift += 7) {
    if (shift >= 64) {
      fail(DecodeError::varint_too_long);
      return 0;
    }
    const std::uint8_t byte = *pos_++;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  fail(DecodeError::truncated);
  return 0;
}

void WireDecoder::read(std::string& target) {
  const auto payload = bytes();
  target.assign(payload.begin(), payload.end());
}

void WireDecoder::read(double& target) {
  if (!expect(WireType::fixed64)) return;
  if (end_ - pos_ < 8) {
    fail(DecodeError::truncated);
    return;
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(pos_[i]) << (8 * i);
  pos_ += 8;
  std::memcpy(&target, &bits, sizeof(target));
}

void WireDecoder::skip() {
  std::ptrdiff_t width = 0;
  switch (type_) {
    case WireType::varint: (void)varint_raw(); return;
    case WireType::length_delimited: (void)bytes(); return;
    case WireType::fixed64: width = 8; break;
    case WireType::fixed32: width = 4; break;
  }
  if (end_ - pos_ < width) {
    fail(DecodeError::truncated);
  } else {
    pos_ += width;
  }
}

util::Status WireDecoder::status() const {
  if (ok()) return {};
  return util::Error::decode_failure("field " + std::to_string(error_field_) + ": " +
                                     to_string(error_));
}

}  // namespace flexran::proto
