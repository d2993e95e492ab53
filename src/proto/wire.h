// Protobuf-compatible wire primitives, written from scratch (the paper uses
// Google Protocol Buffers for FlexRAN protocol messages; signaling-overhead
// results depend on this compact encoding). Supported wire types: varint
// (0), 64-bit (1), length-delimited (2), 32-bit (5). Unknown fields are
// skippable, giving the same forward-compatibility protobuf provides.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/bytes.h"
#include "util/result.h"

namespace flexran::proto {

enum class WireType : std::uint8_t {
  varint = 0,
  fixed64 = 1,
  length_delimited = 2,
  fixed32 = 5,
};

inline std::uint64_t zigzag_encode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^ static_cast<std::uint64_t>(value >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

/// Number of bytes the minimal varint encoding of `value` occupies.
std::size_t varint_size(std::uint64_t value);

class WireEncoder {
 public:
  WireEncoder() = default;

  /// One-byte values (and so every tag of fields 1..15) take the inline
  /// path; longer ones the out-of-line loop.
  void varint(std::uint64_t value) {
    if (value < 0x80) {
      buffer_.write_u8(static_cast<std::uint8_t>(value));
    } else {
      varint_slow(value);
    }
  }

  void field_varint(int field, std::uint64_t value) {
    tag(field, WireType::varint);
    varint(value);
  }
  void field_svarint(int field, std::int64_t value) { field_varint(field, zigzag_encode(value)); }
  void field_double(int field, double value);
  void field_bytes(int field, std::span<const std::uint8_t> bytes);
  void field_string(int field, std::string_view text);

  // -- in-place nested messages (length-prefix backpatching) -----------------
  // Encodes a length-delimited sub-message directly into this encoder's
  // buffer, with no per-sub-message allocation or copy. begin_message writes
  // the tag plus a 1-byte length placeholder and returns a mark (the payload
  // start offset); end_message backpatches the minimal length varint. When the
  // payload turns out >= 128 bytes the tail is shifted right to widen the
  // prefix -- still within reused capacity in steady state. Output is
  // byte-identical to field_bytes over the separately encoded payload. Nests
  // arbitrarily (inner end before outer).
  std::size_t begin_message(int field);
  void end_message(std::size_t mark);

  /// Drops content, keeps capacity: the clear()-and-reuse lifecycle that makes
  /// per-link scratch encoders allocation-free in steady state.
  void clear() { buffer_.clear(); }

  std::span<const std::uint8_t> bytes() const { return buffer_.contents(); }
  std::size_t size() const { return buffer_.size(); }
  std::vector<std::uint8_t> take() { return buffer_.take(); }

 private:
  void tag(int field, WireType type) {
    varint(static_cast<std::uint64_t>(field) << 3 | static_cast<std::uint64_t>(type));
  }
  void varint_slow(std::uint64_t value);
  util::ByteBuffer buffer_;
};

/// Why a decode stopped.
enum class DecodeError : std::uint8_t {
  none,
  truncated,         ///< a value runs past the end of its message
  varint_too_long,   ///< a varint longer than 10 bytes
  bad_wire_type,     ///< a tag with wire type 3, 4, 6 or 7
  bad_field_number,  ///< a tag with field number <= 0
  wrong_wire_type,   ///< a known field arrived with another wire type
};

const char* to_string(DecodeError error);

/// A one-byte tag: field 1..15 with wire type `type`. The field-table
/// decoders (proto/fields.h) dispatch on these (WireDecoder::fields).
constexpr std::uint32_t tag_byte(int field, WireType type) {
  return static_cast<std::uint32_t>(field) << 3 | static_cast<std::uint32_t>(type);
}

/// Sticky-error reader. Reads return plain values; the first failure is
/// latched together with the number of the field being read, the cursor
/// moves to the end of the message, and from then on next() returns false
/// (values read after it are unspecified). A message decoder checks the
/// outcome once, at the end. Nested messages narrow this same decoder
/// (message()), so an error at any depth ends the whole decode. A
/// util::Error, with its string, is only built by status() and finish(), at
/// the API boundary.
///
/// Every message decoder is fields(), expanded from the message's field
/// table (proto/fields.h): one arm per row, first run on the raw byte at
/// the cursor (peek()); an arm that matches consumes that one-byte tag with
/// take_tag(). Whatever no arm matches takes the checked path: next(), the
/// same arms on tag(), then unexpected(). It accepts and rejects the same
/// bytes, with the same error and field, as the plain checked loop
/// `while (dec.next()) switch (dec.field())` with `default: dec.skip()`.
class WireDecoder {
 public:
  explicit WireDecoder(std::span<const std::uint8_t> data)
      : pos_(data.data()), end_(data.data() + data.size()) {}

  /// Reads the next tag of the current message. False at its end or once an
  /// error is latched.
  [[gnu::always_inline]] bool next() {
    if (pos_ >= end_ || error_ != DecodeError::none) return false;
    field_ = 0;
    const std::uint64_t raw = varint_raw();
    field_ = static_cast<int>(raw >> 3);
    const auto type_bits = static_cast<unsigned>(raw & 0x7);
    type_ = static_cast<WireType>(type_bits);
    if (((0x27u >> type_bits) & 1u) == 0) {  // not one of 0, 1, 2, 5
      fail(DecodeError::bad_wire_type);
    } else if (field_ <= 0) {
      fail(DecodeError::bad_field_number);
    }
    return error_ == DecodeError::none;
  }
  int field() const { return field_; }
  WireType type() const { return type_; }

  // ---- tag-byte dispatch --------------------------------------------------
  /// The start of every fields() arm: consumes the tag when the arm runs on
  /// the peeked byte; on the checked path next() already has.
  template <bool kPeeked>
  [[gnu::always_inline]] void take(std::uint64_t tag) {
    if constexpr (kPeeked) take_tag(static_cast<std::uint8_t>(tag));
  }
  /// Reads every field of the current message. `arms` is a lambda
  /// `[&]<bool kPeeked>(std::uint64_t tag) -> bool` with one arm per known
  /// tag_byte(); each arm starts with `take<kPeeked>(tag)`, reads the value
  /// and returns true, and a tag no arm names returns false. `known` holds,
  /// as bit n, every field number n an arm names. Like the field-table
  /// templates that call it, it is always inlined, never emitted on its own.
  template <typename Arms>
  [[gnu::always_inline, gnu::gnu_inline]] inline void fields(std::uint32_t known, Arms&& arms) {
    for (;;) {
      if (arms.template operator()<true>(peek())) continue;
      if (!next()) return;
      if (!arms.template operator()<false>(tag())) unexpected(known);
    }
  }

  // ---- the current field's value; each checks its wire type first --------
  [[gnu::always_inline]] std::uint64_t varint() {
    return expect(WireType::varint) ? varint_raw() : 0;
  }
  [[gnu::always_inline]] std::int64_t svarint() { return zigzag_decode(varint()); }
  /// Payload of a length-delimited field, a view into the decoded data.
  [[gnu::always_inline]] std::span<const std::uint8_t> bytes() {
    const std::uint64_t length = expect(WireType::length_delimited) ? varint_raw() : 0;
    if (static_cast<std::uint64_t>(end_ - pos_) < length) fail(DecodeError::truncated);
    if (error_ != DecodeError::none) return {pos_, 0};
    const std::span<const std::uint8_t> out(pos_, static_cast<std::size_t>(length));
    pos_ += length;
    return out;
  }
  /// Varint into an integer, enum or bool field (narrowed like static_cast).
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  [[gnu::always_inline]] void read(T& target) {
    target = static_cast<T>(varint());
  }
  void read(std::string& target);
  /// A fixed64 field as a double.
  void read(double& target);
  /// Decodes the current length-delimited field as a nested message:
  /// `decode(*this, out)` runs its own loop, bounded by the payload. An
  /// error inside leaves the cursor at the end of the outer message too.
  template <typename T, typename Decode>
  [[gnu::always_inline, gnu::gnu_inline]] inline void message(T& out, Decode&& decode) {
    const std::uint8_t* outer_end = end_;
    const std::span<const std::uint8_t> payload = bytes();
    pos_ = payload.data();
    end_ = payload.data() + payload.size();
    decode(*this, out);
    pos_ = ok() ? end_ : outer_end;
    end_ = outer_end;
  }
  /// Skips the current field's value (unknown fields: forward compatibility).
  void skip();

  /// A varint at the cursor, with no tag. With 10 bytes left (the longest
  /// varint) values of up to 5 bytes, 35 bits, are read inline; so is a
  /// one-byte value nearer the end. Each further byte is added with its
  /// continuation bit and the previous byte's is cancelled by the "- 1"
  /// (protobuf's unroll). Longer values, the message tail and every
  /// malformed case take the checked loop out of line. The hot primitives
  /// are forced inline: in a large message decoder the compiler would
  /// otherwise call them out of line.
  [[gnu::always_inline]] std::uint64_t varint_raw() {
    const std::uint8_t* p = pos_;
    if (end_ - p >= 10) {
      std::uint64_t value = p[0];
      if (value < 0x80) {
        pos_ = p + 1;
        return value;
      }
      value += (static_cast<std::uint64_t>(p[1]) - 1) << 7;
      if (p[1] < 0x80) {
        pos_ = p + 2;
        return value;
      }
      value += (static_cast<std::uint64_t>(p[2]) - 1) << 14;
      if (p[2] < 0x80) {
        pos_ = p + 3;
        return value;
      }
      value += (static_cast<std::uint64_t>(p[3]) - 1) << 21;
      if (p[3] < 0x80) {
        pos_ = p + 4;
        return value;
      }
      value += (static_cast<std::uint64_t>(p[4]) - 1) << 28;
      if (p[4] < 0x80) {
        pos_ = p + 5;
        return value;
      }
    } else if (p < end_ && *p < 0x80) {
      pos_ = p + 1;
      return *p;
    }
    return varint_slow();
  }
  bool done() const { return pos_ >= end_; }

  bool ok() const { return error_ == DecodeError::none; }
  DecodeError error() const { return error_; }
  /// The field being read when the error was latched (0: its tag was cut).
  int error_field() const { return error_field_; }
  util::Status status() const;

 private:
  /// The byte at the cursor. 0, which is no valid tag, at the end of the
  /// current message and so also once an error is latched.
  [[gnu::always_inline]] std::uint8_t peek() const { return pos_ < end_ ? *pos_ : 0; }
  /// Consumes the one-byte tag `byte` that peek() returned and an arm matched.
  [[gnu::always_inline]] void take_tag(std::uint8_t byte) {
    ++pos_;
    field_ = byte >> 3;
    type_ = static_cast<WireType>(byte & 0x7);
  }
  /// The tag next() read, as tag_byte() spells it for fields 1..15.
  std::uint64_t tag() const {
    return static_cast<std::uint64_t>(field_) << 3 | static_cast<std::uint64_t>(type_);
  }
  /// A tag that no arm matched: a field in `known` with another wire type
  /// latches wrong_wire_type, any other field is skipped.
  void unexpected(std::uint32_t known) {
    if (field_ < 32 && ((known >> field_) & 1u) != 0) {
      fail(DecodeError::wrong_wire_type);
    } else {
      skip();
    }
  }
  /// Latches `error` at the current field unless an earlier one holds. Out
  /// of line: it is the cold path of every read.
  void fail(DecodeError error);
  [[gnu::always_inline]] bool expect(WireType type) {
    if (type_ == type) return true;
    fail(DecodeError::wrong_wire_type);
    return false;
  }
  std::uint64_t varint_slow();

  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  int field_ = 0;
  WireType type_ = WireType::varint;
  DecodeError error_ = DecodeError::none;
  int error_field_ = 0;
};

}  // namespace flexran::proto
