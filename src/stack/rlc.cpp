#include "stack/rlc.h"

#include <algorithm>

namespace flexran::stack {

int default_lc_group(lte::Lcid lcid) { return lcid <= lte::kSrb1 + 1 ? 0 : 2; }

namespace {

/// Transport block bits one packet (or segment) of `bytes` consumes: the
/// per-packet truncation is part of the model, so runs charge it per packet.
std::int64_t l2_bits(std::uint32_t bytes) {
  return static_cast<std::int64_t>(static_cast<double>(bytes) * 8.0 * kL2OverheadFactor);
}

std::uint32_t app_budget(std::int64_t tb_bits) {
  return static_cast<std::uint32_t>(static_cast<double>(tb_bits) / (8.0 * kL2OverheadFactor));
}

}  // namespace

void RlcQueue::enqueue(lte::Lcid lcid, std::uint32_t bytes) {
  if (bytes == 0) return;
  Channel& channel = channels_[lcid];
  if (!channel.runs.empty() && channel.runs.back().size == bytes) {
    ++channel.runs.back().count;
  } else {
    channel.runs.push_back({bytes, 1});
  }
  channel.bytes += bytes;
  total_bytes_ += bytes;
}

std::uint32_t RlcQueue::drain(Channel& channel, std::uint32_t budget, std::int64_t* tb_bits) {
  std::uint32_t drained = 0;
  const auto take = [&](std::uint32_t bytes, std::uint32_t packets) {
    drained += bytes;
    budget -= bytes;
    if (tb_bits != nullptr) {
      *tb_bits -= static_cast<std::int64_t>(packets) * l2_bits(bytes / packets);
    }
  };
  if (channel.head > 0 && budget > 0) {
    const std::uint32_t bytes = std::min(channel.head, budget);
    channel.head -= bytes;
    take(bytes, 1);
  }
  while (budget > 0 && !channel.runs.empty()) {
    Run& run = channel.runs.front();
    const std::uint32_t whole = std::min(run.count, budget / run.size);
    if (whole > 0) {
      run.count -= whole;
      take(whole * run.size, whole);
    }
    if (run.count > 0 && budget > 0) {
      // The budget ends inside the next packet: it becomes the partial head.
      channel.head = run.size - budget;
      --run.count;
      take(budget, 1);
    }
    if (run.count == 0) channel.runs.pop_front();
  }
  channel.bytes -= drained;
  total_bytes_ -= drained;
  return drained;
}

std::uint32_t RlcQueue::dequeue(std::int64_t tb_bits, std::int64_t* tb_bits_left) {
  std::uint32_t drained = 0;
  for (auto& [lcid, channel] : channels_) {
    (void)lcid;
    if (tb_bits <= 0) break;
    if (channel.bytes == 0) continue;
    // Budget in application bytes after L2 overhead.
    drained += drain(channel, app_budget(tb_bits), &tb_bits);
  }
  if (tb_bits_left != nullptr) *tb_bits_left = tb_bits;
  return drained;
}

std::uint32_t RlcQueue::dequeue_lcid(lte::Lcid lcid, std::int64_t tb_bits) {
  auto it = channels_.find(lcid);
  if (it == channels_.end()) return 0;
  return drain(it->second, app_budget(tb_bits), nullptr);
}

std::uint32_t RlcQueue::bytes_for_lc_group(int lcg) const {
  std::uint32_t bytes = 0;
  for (const auto& [lcid, channel] : channels_) {
    if (default_lc_group(lcid) == lcg) bytes += channel.bytes;
  }
  return bytes;
}

}  // namespace flexran::stack
