#include "traffic/tcp.h"

#include <algorithm>

namespace flexran::traffic {

TcpFlow::TcpFlow(sim::Simulator& sim, EnqueueFn enqueue, QueueBytesFn queue_bytes,
                 TcpConfig config)
    : sim_(sim),
      enqueue_(std::move(enqueue)),
      queue_bytes_(std::move(queue_bytes)),
      config_(config) {}

void TcpFlow::transfer(std::uint64_t bytes, CompletionFn on_complete) {
  transfers_.push_back({bytes, std::move(on_complete)});
  maybe_send();
}

void TcpFlow::on_delivered(std::uint32_t wire_bytes) {
  inflight_bytes_ -= std::min<std::uint64_t>(inflight_bytes_, wire_bytes);
  const auto payload =
      static_cast<std::uint32_t>(static_cast<double>(wire_bytes) / wire_factor());
  payload_delivered_ += payload;

  // ACK-clocked window growth (suppressed during post-loss cooldown).
  if (current_tti_ >= cooldown_until_tti_) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += payload;  // slow start: one MSS per MSS acked
    } else {
      cwnd_ += std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(
                 static_cast<double>(kMssBytes) * payload / static_cast<double>(cwnd_)));
    }
  }

  // Progress the head transfer.
  std::uint64_t credit = payload;
  while (credit > 0 && !transfers_.empty()) {
    Transfer& head = transfers_.front();
    const std::uint64_t used = std::min(credit, head.remaining);
    head.remaining -= used;
    credit -= used;
    if (head.remaining == 0) {
      auto done = std::move(head.on_complete);
      transfers_.pop_front();
      if (done) done();
    }
  }
  maybe_send();
}

void TcpFlow::on_tti(std::int64_t tti) {
  current_tti_ = tti;
  maybe_send();
}

void TcpFlow::maybe_send() {
  // Outstanding payload for queued transfers (wire bytes already enqueued
  // count via inflight).
  auto backlog = [&]() -> std::uint64_t {
    if (persistent_) return UINT64_MAX;
    std::uint64_t total = 0;
    for (const auto& transfer : transfers_) total += transfer.remaining;
    // Subtract what is already in flight (in payload terms).
    const auto inflight_payload =
        static_cast<std::uint64_t>(static_cast<double>(inflight_bytes_) / wire_factor());
    return total > inflight_payload ? total - inflight_payload : 0;
  };

  while (inflight_bytes_ + kMssBytes + kHeaderBytes <= cwnd_ && backlog() > 0) {
    // Congestion check: a full bearer queue means the next packet would be
    // tail-dropped. React once per cooldown window.
    if (queue_bytes_() + kMssBytes + kHeaderBytes >= config_.queue_limit_bytes) {
      if (current_tti_ >= cooldown_until_tti_) {
        ssthresh_ = std::max(kMinCwndBytes, cwnd_ / 2);
        cwnd_ = ssthresh_;
        cooldown_until_tti_ = current_tti_ + kLossCooldownTtis;
        ++loss_events_;
      }
      return;
    }
    const std::uint32_t wire = kMssBytes + kHeaderBytes;
    enqueue_(wire);
    inflight_bytes_ += wire;
  }
}

}  // namespace flexran::traffic
