// Almost-Blank Subframe patterns for eICIC (paper Sec. 6.1). A pattern is a
// 40-subframe bitmap (as in the X2 ABS Information IE, 36.423); subframe n
// is almost-blank when bit (n mod 40) is set. The paper's experiment uses 4
// ABSs per 10-subframe frame, i.e. a pattern with period 10 repeated 4x.
#pragma once

#include <bitset>
#include <cstdint>
#include <string>

namespace flexran::lte {

class AbsPattern {
 public:
  static constexpr int kPatternLength = 40;

  AbsPattern() = default;

  /// Pattern with `abs_per_frame` almost-blank subframes in every
  /// 10-subframe frame, placed at the start of the frame.
  static AbsPattern per_frame(int abs_per_frame) {
    AbsPattern p;
    for (int frame = 0; frame < kPatternLength / 10; ++frame) {
      for (int i = 0; i < abs_per_frame && i < 10; ++i) {
        p.bits_.set(static_cast<std::size_t>(frame * 10 + i));
      }
    }
    return p;
  }

  bool is_abs(std::int64_t subframe) const {
    return bits_.test(static_cast<std::size_t>(subframe % kPatternLength));
  }

  /// Wire form: 40 bits in a u64.
  std::uint64_t to_bits() const {
    std::uint64_t out = 0;
    for (int i = 0; i < kPatternLength; ++i) {
      if (bits_.test(static_cast<std::size_t>(i))) out |= 1ull << i;
    }
    return out;
  }
  static AbsPattern from_bits(std::uint64_t bits) {
    AbsPattern p;
    for (int i = 0; i < kPatternLength; ++i) {
      if ((bits >> i) & 1ull) p.bits_.set(static_cast<std::size_t>(i));
    }
    return p;
  }

  bool operator==(const AbsPattern& other) const { return bits_ == other.bits_; }

 private:
  std::bitset<kPatternLength> bits_;
};

}  // namespace flexran::lte
