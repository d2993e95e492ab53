// Simulated point-to-point link — the netem equivalent used for the
// master<->agent control channel. Models one-way propagation delay, jitter,
// a serialization rate, and random loss, while preserving FIFO delivery
// order (as TCP would after reordering repair).
//
// The link owns its frames in flight: a FIFO of buffers from the
// simulator's FramePool. Arrival times on one link never decrease, so each
// send schedules one delivery event that captures only the link and hands
// the FIFO's head to the receiver; the buffer then goes back to the pool.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace flexran::sim {

struct LinkConfig {
  /// One-way propagation delay.
  TimeUs delay = 0;
  /// Uniform jitter in [0, jitter] added per packet.
  TimeUs jitter = 0;
  /// Serialization rate in bits/s; 0 = infinite.
  std::int64_t rate_bps = 0;
  /// Packet loss probability in [0, 1). Lost packets are retransmitted after
  /// one RTT (delay * 2) to mimic TCP recovery rather than dropped silently.
  double loss = 0.0;
  std::uint64_t seed = 1;
};

class SimLink {
 public:
  /// Receives each frame at its arrival time, in send order. The frame is
  /// the link's pooled buffer: the receiver may read it, change it in place
  /// or move its bytes out to keep them; what is left goes back to the
  /// simulator's frame pool when the call returns.
  using DeliverFn = std::function<void(std::vector<std::uint8_t>& frame)>;

  SimLink(Simulator& sim, LinkConfig config) : sim_(sim), config_(config), rng_(config.seed) {}

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  const LinkConfig& config() const { return config_; }
  /// Latency reconfiguration at runtime (paper Sec. 5.3 uses netem the same
  /// way); applies to packets sent after the call.
  void set_delay(TimeUs delay) { config_.delay = delay; }

  /// Simulates a network partition: while down, packets are dropped
  /// outright (no TCP-style recovery; the path is gone).
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

  /// An empty buffer from the simulator's frame pool to fill and send().
  std::vector<std::uint8_t> frame_buffer() { return sim_.frame_pool().take(sim_.current_tti()); }
  /// Queues `frame` for delivery. A frame dropped by a partition goes
  /// straight back to the pool.
  void send(std::vector<std::uint8_t> frame);

  /// Bytes still queued behind the serializer right now -- the link-level
  /// occupancy a sender's byte budget is checked against. Always 0 on a
  /// rate-unlimited link (packets serialize instantly).
  std::uint64_t backlog_bytes() const {
    const TimeUs now = sim_.now();
    if (config_.rate_bps <= 0 || tx_free_at_ <= now) return 0;
    return static_cast<std::uint64_t>(static_cast<double>(tx_free_at_ - now) * 1e-6 *
                                      static_cast<double>(config_.rate_bps) / 8.0);
  }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_retransmitted() const { return packets_retransmitted_; }

 private:
  TimeUs serialization_delay(std::size_t bytes) const;
  /// The delivery event: pops the oldest frame in flight.
  void deliver_head();

  Simulator& sim_;
  LinkConfig config_;
  util::Rng rng_;
  DeliverFn deliver_;
  /// Frames in flight, oldest at `head_`: a ring whose size is a power of
  /// two (or 0), grown by doubling.
  std::vector<std::vector<std::uint8_t>> in_flight_;
  std::size_t head_ = 0;
  std::size_t in_flight_count_ = 0;
  /// Time the previous packet finished serializing (rate limiting).
  TimeUs tx_free_at_ = 0;
  /// Delivery-order floor so jitter cannot reorder packets.
  TimeUs last_delivery_ = 0;
  bool down_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_retransmitted_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

}  // namespace flexran::sim
