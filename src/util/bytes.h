// Growable byte buffer with separate read/write cursors, used by the wire
// codec and the transports. All multi-byte integers are little-endian on the
// wire (fixed-width accessors); varints live in proto/wire.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace flexran::util {

/// Consumed-prefix size at which compact() actually erases. Small enough to
/// bound idle memory, large enough that drip-fed streams do not memmove the
/// pending tail on every byte.
constexpr std::size_t kCompactThresholdBytes = 4096;

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> data) : data_(std::move(data)) {}
  explicit ByteBuffer(std::span<const std::uint8_t> data) : data_(data.begin(), data.end()) {}

  // -- write side -----------------------------------------------------------
  void write_u8(std::uint8_t value) { data_.push_back(value); }
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_bytes(std::span<const std::uint8_t> bytes);
  void write_string(std::string_view text);

  // -- read side ------------------------------------------------------------
  std::size_t readable() const { return data_.size() - read_pos_; }
  /// Move the read cursor to an absolute position (clamped to size()). O(1),
  /// unlike rewind-and-replay; stream reassembly uses this to restore a mark.
  void seek(std::size_t pos) { read_pos_ = pos < data_.size() ? pos : data_.size(); }
  /// Advance the read cursor by `count` bytes (clamped to the end).
  void skip(std::size_t count) { seek(read_pos_ + count); }
  /// Drop already-consumed bytes. Amortized: the erase+memmove only happens
  /// once the consumed prefix passes kCompactThresholdBytes (or the buffer is
  /// fully drained, which is a cheap clear), so per-feed cost stays O(new
  /// bytes) instead of O(buffered bytes).
  void compact();
  /// Unconditional prefix drop, for callers that need size() == readable().
  void compact_now();

  std::size_t size() const { return data_.size(); }
  void clear() {
    data_.clear();
    read_pos_ = 0;
  }

  // -- in-place patching (wire encoder length backpatching) ------------------
  std::uint8_t* mutable_data() { return data_.data(); }
  /// Opens a `count`-byte zero gap at `pos`, shifting the tail right. Used by
  /// the wire encoder to widen a reserved length prefix after the fact.
  void insert_zeros(std::size_t pos, std::size_t count);

  std::span<const std::uint8_t> contents() const { return data_; }
  std::span<const std::uint8_t> remaining() const {
    return std::span<const std::uint8_t>(data_).subspan(read_pos_);
  }
  std::vector<std::uint8_t> take() {
    read_pos_ = 0;
    return std::move(data_);
  }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t read_pos_ = 0;
};

}  // namespace flexran::util
