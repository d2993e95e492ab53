#include "lte/harq.h"

namespace flexran::lte {

std::optional<std::uint8_t> HarqEntity::find_free_process() const {
  for (std::uint8_t pid = 0; pid < kNumHarqProcesses; ++pid) {
    if (!processes_[pid].active) return pid;
  }
  return std::nullopt;
}

void HarqEntity::start(std::uint8_t pid, std::int64_t tb_bits, int mcs, int n_prb,
                       std::int64_t subframe) {
  HarqProcess& p = processes_[pid % kNumHarqProcesses];
  if (!p.active) {
    p = HarqProcess{};
    p.tb_bits = tb_bits;
    p.mcs = mcs;
    p.n_prb = n_prb;
  }
  p.active = true;
  p.tx_subframe = subframe;
}

std::int64_t HarqEntity::ack(std::uint8_t pid) {
  HarqProcess& p = processes_[pid % kNumHarqProcesses];
  const std::int64_t bits = p.tb_bits;
  p = HarqProcess{};
  return bits;
}

bool HarqEntity::nack(std::uint8_t pid) {
  HarqProcess& p = processes_[pid % kNumHarqProcesses];
  if (!p.active) return false;
  if (++p.retx_count > kMaxHarqRetransmissions) {
    p = HarqProcess{};
    return false;
  }
  return true;
}

int HarqEntity::pending_retransmissions() const {
  int pending = 0;
  for (const auto& p : processes_) {
    if (p.active && p.retx_count > 0) ++pending;
  }
  return pending;
}

}  // namespace flexran::lte
