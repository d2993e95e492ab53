// Simplified FDD HARQ bookkeeping: 8 stop-and-wait processes per UE per
// direction. The PHY error model decides ACK/NACK per transport block; a
// NACKed block is retransmitted by the MAC on the same process. Feedback
// arrives kFeedbackDelay TTIs after transmission (4 in FDD).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "lte/types.h"

namespace flexran::lte {

constexpr int kHarqFeedbackDelayTtis = 4;
constexpr int kMaxHarqRetransmissions = 3;

struct HarqProcess {
  bool active = false;
  std::int64_t tb_bits = 0;
  int mcs = 0;
  int n_prb = 0;
  int retx_count = 0;
  std::int64_t tx_subframe = 0;
};

class HarqEntity {
 public:
  /// Returns a free process id, or nullopt if all 8 are awaiting feedback.
  std::optional<std::uint8_t> find_free_process() const;

  /// Marks a process busy with an (re)transmission.
  void start(std::uint8_t pid, std::int64_t tb_bits, int mcs, int n_prb, std::int64_t subframe);

  /// ACK: frees the process and returns the delivered bits.
  std::int64_t ack(std::uint8_t pid);

  /// NACK: keeps the process for retransmission; returns false (and frees
  /// the process, dropping the block) once kMaxHarqRetransmissions is hit.
  bool nack(std::uint8_t pid);

  const HarqProcess& process(std::uint8_t pid) const {
    return processes_[pid % kNumHarqProcesses];
  }
  /// Processes that still need a retransmission scheduled.
  int pending_retransmissions() const;

 private:
  std::array<HarqProcess, kNumHarqProcesses> processes_{};
};

}  // namespace flexran::lte
