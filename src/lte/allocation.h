// Resource-block allocations and DCI (Downlink/Uplink Control Information)
// structures. A scheduling decision -- whether made by a local agent-side
// VSF or pushed by the master controller -- is a list of DCIs for one TTI.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "lte/tables.h"
#include "lte/types.h"

namespace flexran::lte {

/// Bitmap over the PRBs of a carrier (allocation type 0 with 1-PRB
/// granularity, which is what the simulated MAC applies). Held as the two
/// 64-bit words of its wire form, so every operation is a few word ops;
/// bits at and above kMaxPrbs are always zero.
class RbAllocation {
 public:
  RbAllocation() = default;

  /// Throws std::out_of_range for a PRB outside [0, kMaxPrbs): a delegated
  /// VSF writing past the band is caught where it writes.
  void set(int prb) {
    check(prb, "RbAllocation::set");
    words_[static_cast<std::size_t>(prb / 64)] |= bit(prb);
  }
  /// Sets [first, first + count). Throws std::out_of_range at the first PRB
  /// outside the band, after setting the in-band PRBs before it.
  void set_range(int first, int count) {
    if (count <= 0) return;
    check(first, "RbAllocation::set_range");
    const bool past_band = count > kMaxPrbs - first;
    const int end = past_band ? kMaxPrbs : first + count;
    for (int word = first / 64; word * 64 < end; ++word) {
      const int base = word * 64;
      words_[static_cast<std::size_t>(word)] |=
          span_mask(std::max(first, base) - base, std::min(end, base + 64) - base);
    }
    if (past_band) check(kMaxPrbs, "RbAllocation::set_range");
  }
  bool test(int prb) const {
    check(prb, "RbAllocation::test");
    return (words_[static_cast<std::size_t>(prb / 64)] & bit(prb)) != 0;
  }
  int count() const { return std::popcount(words_[0]) + std::popcount(words_[1]); }
  bool empty() const { return (words_[0] | words_[1]) == 0; }
  void clear() { words_ = {}; }

  bool overlaps(const RbAllocation& other) const {
    return ((words_[0] & other.words_[0]) | (words_[1] & other.words_[1])) != 0;
  }
  /// Highest allocated PRB index, -1 when empty.
  int highest_set() const {
    if (words_[1] != 0) return 127 - std::countl_zero(words_[1]);
    if (words_[0] != 0) return 63 - std::countl_zero(words_[0]);
    return -1;
  }
  RbAllocation& merge(const RbAllocation& other) {
    words_[0] |= other.words_[0];
    words_[1] |= other.words_[1];
    return *this;
  }

  /// Compact wire form: two 64-bit words covering up to 100 PRBs
  /// (`index` 0 or 1).
  std::uint64_t word(int index) const { return words_[static_cast<std::size_t>(index)]; }
  /// Inverse of word(); bits at and above kMaxPrbs are dropped.
  static RbAllocation from_words(std::uint64_t w0, std::uint64_t w1) {
    RbAllocation alloc;
    alloc.words_ = {w0, w1 & kWord1Mask};
    return alloc;
  }

  bool operator==(const RbAllocation& other) const = default;

 private:
  static_assert(kMaxPrbs > 64 && kMaxPrbs <= 128, "two words cover the band");
  static constexpr std::uint64_t kWord1Mask = (1ull << (kMaxPrbs - 64)) - 1;

  static void check(int prb, const char* where) {
    if (prb < 0 || prb >= kMaxPrbs) out_of_band(prb, where);
  }
  [[noreturn]] static void out_of_band(int prb, const char* where) {
    throw std::out_of_range(std::string(where) + ": PRB " + std::to_string(prb) +
                            " outside [0, " + std::to_string(kMaxPrbs) + ")");
  }
  static std::uint64_t bit(int prb) { return 1ull << (prb % 64); }
  /// Bits [lo, hi) of one word, 0 <= lo < hi <= 64.
  static std::uint64_t span_mask(int lo, int hi) {
    const std::uint64_t upto_hi = hi == 64 ? ~0ull : (1ull << hi) - 1;
    return upto_hi & ~((1ull << lo) - 1);
  }

  std::array<std::uint64_t, 2> words_{};
};

/// A downlink scheduling grant for one UE in one TTI.
struct DlDci {
  Rnti rnti = kInvalidRnti;
  RbAllocation rbs;
  int mcs = 0;
  std::uint8_t harq_pid = 0;
  bool new_data = true;  // NDI toggle abstracted as a flag
  /// Component carrier: 0 = PCell, 1 = SCell (carrier aggregation). A
  /// SCell grant is only valid for UEs whose SCell has been activated.
  std::uint8_t carrier = 0;

  std::int64_t tbs() const { return tbs_bits(mcs, rbs.count()); }
};

/// An uplink scheduling grant for one UE in one TTI.
struct UlDci {
  Rnti rnti = kInvalidRnti;
  RbAllocation rbs;
  int mcs = 0;

  std::int64_t tbs() const { return tbs_bits(mcs, rbs.count()); }
};

/// One TTI's worth of decisions for a cell. `subframe` is the absolute TTI
/// index the decision targets -- the schedule-ahead mechanism (paper
/// Sec. 5.3) issues decisions with subframe = observed_subframe + n.
struct SchedulingDecision {
  CellId cell_id = 0;
  std::int64_t subframe = 0;
  std::vector<DlDci> dl;
  std::vector<UlDci> ul;

  bool empty() const { return dl.empty() && ul.empty(); }
};

}  // namespace flexran::lte
