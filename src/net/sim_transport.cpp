#include "net/sim_transport.h"

#include <utility>

#include "util/logging.h"
#include "util/rng.h"

namespace flexran::net {

util::Status SimTransport::send(std::span<const std::uint8_t> message) {
  if (!tx_) return util::Error::transport_failure("sim transport not connected");
  ++messages_sent_;
  // Header and body go straight into a pooled buffer, which the link
  // carries to the peer without another copy.
  util::ByteBuffer frame(tx_->frame_buffer());
  frame_into(frame, message);
  tx_->send(frame.take());
  return {};
}

util::Status SimTransport::send(TrafficClass cls, std::span<const std::uint8_t> message) {
  if (!tx_) return util::Error::transport_failure("sim transport not connected");
  if (send_budget_.enabled() && sheddable(cls)) {
    const std::uint64_t frame_bytes = message.size() + kFrameHeaderBytes;
    if (send_budget_.max_bytes > 0 &&
        tx_->backlog_bytes() + frame_bytes > send_budget_.max_bytes) {
      // The link is saturated: dropping a fresh periodic report here beats
      // delivering it stale behind a multi-ms serializer backlog.
      ++frames_shed_;
      ++shed_by_class_[static_cast<std::size_t>(cls)];
      return {};
    }
  }
  return send(message);
}

void SimTransport::inject_disconnect(util::Error error) {
  if (disconnect_) disconnect_(std::move(error));
}

void SimTransport::reorder_next(int n, std::uint64_t seed) {
  if (n <= 0) return;
  reorder_remaining_ += n;
  reorder_seed_ = seed;
}

void SimTransport::reorder_flush() {
  reorder_remaining_ = 0;
  if (reorder_buffer_.empty()) return;
  auto held = std::move(reorder_buffer_);
  reorder_buffer_.clear();
  // Fisher-Yates with a seeded generator: the same schedule produces the
  // same shuffle, so reorder faults stay bit-deterministic per seed.
  util::Rng rng(reorder_seed_ ^ (frames_reordered_ + held.size()));
  for (std::size_t i = held.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(held[i - 1], held[j]);
  }
  frames_reordered_ += held.size();
  for (auto& frame : held) deliver_now(frame);
}

void SimTransport::deliver(std::vector<std::uint8_t>& framed) {
  if (reorder_remaining_ > 0) {
    // A held frame leaves the link's pool: its bytes must outlive the
    // delivery, and the link recycles what is left in `framed`.
    --reorder_remaining_;
    reorder_buffer_.push_back(std::move(framed));
    if (reorder_remaining_ == 0) reorder_flush();
    return;
  }
  deliver_now(framed);
}

void SimTransport::deliver_now(std::vector<std::uint8_t>& framed) {
  if (corrupt_remaining_ > 0 && framed.size() > kFrameHeaderBytes) {
    --corrupt_remaining_;
    ++frames_corrupted_;
    for (std::size_t i = kFrameHeaderBytes; i < framed.size(); ++i) framed[i] |= 0x80;
  }
  bool duplicate = false;
  if (duplicate_remaining_ > 0 && framed.size() > kFrameHeaderBytes) {
    --duplicate_remaining_;
    ++frames_duplicated_;
    duplicate = true;
  }
  auto on_payload = [this](std::span<const std::uint8_t> payload) {
    ++messages_received_;
    if (receive_) receive_(payload);
  };
  auto status = assembler_.feed(framed, on_payload);
  if (status.ok() && duplicate) {
    // Feed the identical framed bytes again: the receiver sees the same
    // message twice, exactly like a retransmission after a lost ack.
    status = assembler_.feed(framed, on_payload);
  }
  if (!status.ok()) {
    FLEXRAN_LOG(error, "net") << "sim transport frame error: " << status.error().message;
    if (disconnect_) disconnect_(status.error());
  }
}

SimTransportPair make_sim_transport_pair(sim::Simulator& sim, const sim::LinkConfig& a_to_b,
                                         const sim::LinkConfig& b_to_a) {
  SimTransportPair pair;
  pair.a = std::make_unique<SimTransport>();
  pair.b = std::make_unique<SimTransport>();
  pair.a->tx_ = std::make_unique<sim::SimLink>(sim, a_to_b);
  pair.b->tx_ = std::make_unique<sim::SimLink>(sim, b_to_a);
  SimTransport* a = pair.a.get();
  SimTransport* b = pair.b.get();
  pair.a->tx_->set_deliver([b](std::vector<std::uint8_t>& frame) { b->deliver(frame); });
  pair.b->tx_->set_deliver([a](std::vector<std::uint8_t>& frame) { a->deliver(frame); });
  return pair;
}

}  // namespace flexran::net
