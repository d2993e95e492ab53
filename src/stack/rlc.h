// RLC transmission queues. Each UE has one queue per logical channel; the
// MAC drains them against scheduled transport blocks. Queue sizes are the
// statistic the FlexRAN agent reports to the master ("transmission queue
// size", paper Table 1).
//
// Modeling notes (see DESIGN.md): queues track bytes per logical channel
// (packet boundaries are preserved for burstiness but segmentation is
// byte-granular, as RLC AM effectively provides), and PDCP/RLC/MAC header
// overhead is charged at dequeue time via kL2OverheadFactor, calibrated so
// 27.7 Mb/s of PHY TBS carries ~25.5 Mb/s of application bytes (Fig. 6b).
// Consecutive packets of one size are stored as one (size, count) run, so
// a backlogged constant-bit-rate bearer costs O(1) memory however long it
// waits.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "lte/types.h"

namespace flexran::stack {

/// L2 header + padding overhead: TBS bits consumed per application byte is
/// 8 * kL2OverheadFactor.
constexpr double kL2OverheadFactor = 1.08;

/// Default mapping of logical channels to LCGs for BSR purposes: SRBs in
/// LCG 0, DRBs in LCG 2 (a common eNodeB configuration).
int default_lc_group(lte::Lcid lcid);

class RlcQueue {
 public:
  /// Enqueue `bytes` of SDU data on `lcid` (one packet).
  void enqueue(lte::Lcid lcid, std::uint32_t bytes);

  /// Drains up to `tb_bits` of transport block capacity across logical
  /// channels in priority order (lowest LCID first, so SRBs preempt DRBs).
  /// Each packet (or segment) taken charges its own truncated L2 bit cost
  /// against `tb_bits`. Returns application bytes removed; `tb_bits_left`,
  /// when given, receives the bits left over.
  std::uint32_t dequeue(std::int64_t tb_bits, std::int64_t* tb_bits_left = nullptr);

  /// Drains from a single logical channel only.
  std::uint32_t dequeue_lcid(lte::Lcid lcid, std::int64_t tb_bits);

  std::uint32_t bytes_for_lc_group(int lcg) const;
  std::uint32_t total_bytes() const { return total_bytes_; }
  bool empty() const { return total_bytes_ == 0; }

  /// Transport block bits needed to fully drain the queue.
  std::int64_t bits_needed() const {
    return static_cast<std::int64_t>(static_cast<double>(total_bytes_) * 8.0 * kL2OverheadFactor) +
           (total_bytes_ > 0 ? 8 : 0);
  }

 private:
  /// `count` consecutive packets of `size` bytes each.
  struct Run {
    std::uint32_t size = 0;
    std::uint32_t count = 0;
  };
  struct Channel {
    /// Bytes left of a packet already partly drained (0 = none); it goes
    /// out before the runs.
    std::uint32_t head = 0;
    std::deque<Run> runs;  // whole packets, in arrival order
    std::uint32_t bytes = 0;
  };

  /// Drains up to `budget` application bytes from one channel, packet by
  /// packet. With `tb_bits` set, each packet taken subtracts its L2 cost.
  std::uint32_t drain(Channel& channel, std::uint32_t budget, std::int64_t* tb_bits);

  std::map<lte::Lcid, Channel> channels_;
  std::uint32_t total_bytes_ = 0;
};

}  // namespace flexran::stack
