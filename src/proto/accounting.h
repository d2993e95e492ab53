// Per-category signaling byte/message accounting, the instrumentation
// behind the paper's Fig. 7 (agent-to-master and master-to-agent overhead
// broken down into agent management / sync / stats / commands).
#pragma once

#include <array>
#include <cstdint>
#include <iterator>

#include "proto/messages.h"

namespace flexran::proto {

/// Every MessageCategory, in value order.
constexpr MessageCategory kAllCategories[] = {
    MessageCategory::agent_management, MessageCategory::sync, MessageCategory::stats,
    MessageCategory::commands, MessageCategory::delegation};

class SignalingAccountant {
 public:
  static constexpr std::size_t kNumCategories = std::size(kAllCategories);

  void record(MessageCategory category, std::size_t bytes) {
    auto& bucket = buckets_[static_cast<std::size_t>(category)];
    bucket.bytes += bytes;
    bucket.messages += 1;
  }

  std::uint64_t bytes(MessageCategory category) const {
    return buckets_[static_cast<std::size_t>(category)].bytes;
  }
  std::uint64_t messages(MessageCategory category) const {
    return buckets_[static_cast<std::size_t>(category)].messages;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_) total += bucket.bytes;
    return total;
  }
  std::uint64_t total_messages() const {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_) total += bucket.messages;
    return total;
  }

 private:
  struct Bucket {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };
  std::array<Bucket, kNumCategories> buckets_{};
};

}  // namespace flexran::proto
