#include "util/bytes.h"

#include <algorithm>

namespace flexran::util {

void ByteBuffer::write_u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    write_u8(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void ByteBuffer::write_u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    write_u8(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void ByteBuffer::write_bytes(std::span<const std::uint8_t> bytes) {
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void ByteBuffer::write_string(std::string_view text) {
  data_.insert(data_.end(), text.begin(), text.end());
}

void ByteBuffer::compact() {
  if (read_pos_ == 0) return;
  if (read_pos_ == data_.size()) {
    // Fully drained: O(1) reset, capacity kept for the next burst.
    data_.clear();
    read_pos_ = 0;
    return;
  }
  if (read_pos_ < kCompactThresholdBytes) return;
  compact_now();
}

void ByteBuffer::compact_now() {
  if (read_pos_ == 0) return;
  data_.erase(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(read_pos_));
  read_pos_ = 0;
}

void ByteBuffer::insert_zeros(std::size_t pos, std::size_t count) {
  if (count == 0) return;
  if (pos > data_.size()) pos = data_.size();
  data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(pos), count, 0);
}

}  // namespace flexran::util
