// In-process transport running over two sim::SimLinks (one per direction)
// inside the discrete-event simulator. Latency / jitter / rate / loss come
// from the link configuration -- this is the netem-shaped control channel
// used in the paper's Sec. 5.3 latency experiments.
//
// A sent message is framed straight into a buffer from the simulator's
// frame pool; the link carries that buffer, and the receiving endpoint's
// FrameAssembler hands the payload to the receive callback as a span into
// it. That is the one copy between sender and receiver. The injected
// faults act on the pooled buffer in place; reorder_next moves held frames
// out of the pool.
#pragma once

#include <memory>

#include "net/framing.h"
#include "net/transport.h"
#include "sim/sim_link.h"
#include "sim/simulator.h"

namespace flexran::net {

class SimTransport;

/// A connected pair of endpoints. Create via make_sim_transport_pair.
struct SimTransportPair {
  std::unique_ptr<SimTransport> a;  // e.g. master side
  std::unique_ptr<SimTransport> b;  // e.g. agent side
};

class SimTransport final : public Transport {
 public:
  util::Status send(std::span<const std::uint8_t> message) override;
  /// Class-aware send with budget enforcement: when a send budget is set
  /// and the outgoing link's backlog would exceed it, sheddable classes
  /// are dropped here (counted per class) instead of queueing behind the
  /// serializer; unsheddable traffic always goes out.
  util::Status send(TrafficClass cls, std::span<const std::uint8_t> message) override;
  void set_send_budget(QueueBudget budget) override { send_budget_ = budget; }

  void set_receive_callback(ReceiveFn fn) override { receive_ = std::move(fn); }
  void set_disconnect_callback(DisconnectFn fn) override { disconnect_ = std::move(fn); }

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return tx_ ? tx_->bytes_sent() : 0; }
  std::uint64_t messages_received() const override { return messages_received_; }
  /// Frames the outgoing link dropped on the floor (partition).
  std::uint64_t frames_dropped() const override { return tx_ ? tx_->packets_dropped() : 0; }
  std::uint64_t frames_shed() const override { return frames_shed_; }
  std::uint64_t frames_shed(TrafficClass cls) const {
    return shed_by_class_[static_cast<std::size_t>(cls)];
  }

  /// Runtime latency control for this endpoint's outgoing link.
  void set_delay(sim::TimeUs delay) {
    if (tx_) tx_->set_delay(delay);
  }
  sim::TimeUs delay() const { return tx_ ? tx_->config().delay : 0; }
  /// Partition control: while down, outgoing messages are dropped. The
  /// frame assembler tolerates this because whole frames are dropped.
  void set_down(bool down) {
    if (tx_) tx_->set_down(down);
  }
  bool down() const { return tx_ != nullptr && tx_->down(); }

  // ---- fault injection -----------------------------------------------------
  /// Fires this endpoint's disconnect callback, as a dead peer (TCP RST)
  /// would. The transport itself stays usable; lifecycle is the owner's.
  void inject_disconnect(util::Error error);
  /// Corrupts the payload of the next `n` frames delivered to this endpoint
  /// (every byte gets its top bit set, which is guaranteed to fail envelope
  /// decoding on non-empty bodies -- an unterminated varint).
  void corrupt_next(int n) { corrupt_remaining_ += n; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  /// Re-delivers the next `n` frames arriving at this endpoint a second
  /// time, back to back (a retransmit-after-ack duplicate). The receiver's
  /// xid/epoch dedup is supposed to make the copy a no-op.
  void duplicate_next(int n) { duplicate_remaining_ += n; }
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  /// Holds back the next `n` frames delivered to this endpoint and
  /// releases them in a deterministically shuffled order once all `n`
  /// have arrived (or reorder_flush() gives up waiting). This
  /// deliberately bypasses SimLink's delivery-order floor -- the link
  /// serializer is strictly FIFO, so out-of-order arrival (multipath,
  /// kernel requeueing) can only be injected here, past the link. The
  /// session layer's xid/epoch logic is expected to absorb it.
  void reorder_next(int n, std::uint64_t seed = 0x5eedULL);
  /// Releases any frames still held by reorder_next even though fewer
  /// than `n` arrived. The fault injector schedules this as a deadline so
  /// a quiet channel (or a follow-up partition) cannot strand frames in
  /// the reorder buffer forever.
  void reorder_flush();
  std::uint64_t frames_reordered() const { return frames_reordered_; }

 private:
  friend SimTransportPair make_sim_transport_pair(sim::Simulator& sim,
                                                  const sim::LinkConfig& a_to_b,
                                                  const sim::LinkConfig& b_to_a);
  /// The link's delivery: `framed` is its pooled buffer (see
  /// sim::SimLink::DeliverFn).
  void deliver(std::vector<std::uint8_t>& framed);
  void deliver_now(std::vector<std::uint8_t>& framed);

  std::unique_ptr<sim::SimLink> tx_;
  FrameAssembler assembler_;
  ReceiveFn receive_;
  DisconnectFn disconnect_;
  QueueBudget send_budget_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t frames_shed_ = 0;
  std::array<std::uint64_t, kNumTrafficClasses> shed_by_class_{};
  int corrupt_remaining_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  int duplicate_remaining_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  int reorder_remaining_ = 0;
  std::uint64_t reorder_seed_ = 0;
  std::vector<std::vector<std::uint8_t>> reorder_buffer_;
  std::uint64_t frames_reordered_ = 0;
};

/// Creates two endpoints joined by independent directional links (so
/// asymmetric channels can be modeled).
SimTransportPair make_sim_transport_pair(sim::Simulator& sim, const sim::LinkConfig& a_to_b,
                                         const sim::LinkConfig& b_to_a);

/// Symmetric convenience overload.
inline SimTransportPair make_sim_transport_pair(sim::Simulator& sim,
                                                const sim::LinkConfig& both = {}) {
  return make_sim_transport_pair(sim, both, both);
}

}  // namespace flexran::net
