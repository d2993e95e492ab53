// The trim rule shared by the free lists that recycle buffers on the
// control path: the simulator's frame pool (sim::FramePool), the ingest
// queue's spare entries (net::ClassedQueue) and the RIB's retired agent
// nodes (ctrl::Rib).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace flexran::util {

/// A free list keeps at most its recent peak need: the most items its owner
/// needed at once in any round of the last one to two windows of
/// kWindowRounds rounds. A round is the owner's natural cycle (a TTI of
/// simulated time, one drain of a queue, one snapshot publish). The cap is
/// derived from use, not configured: a burst such as a fleet's set-up is
/// released a window or two after it ends, and a need that rises and falls
/// from round to round is held at its peak instead of chasing the last
/// value.
class RecentPeak {
 public:
  static constexpr std::uint32_t kWindowRounds = 64;

  /// Records the need right now (items held by users, or wanted by the
  /// round in progress).
  void note(std::size_t need) { current_ = std::max(current_, need); }

  /// Closes one round and returns the cap to trim the free list to.
  std::size_t end_round() {
    if (++rounds_ == kWindowRounds) {
      previous_ = current_;
      current_ = 0;
      rounds_ = 0;
    }
    return cap();
  }

  /// Items worth keeping, spare and held together.
  std::size_t cap() const { return std::max(current_, previous_); }

 private:
  std::size_t current_ = 0;
  std::size_t previous_ = 0;
  std::uint32_t rounds_ = 0;
};

}  // namespace flexran::util
