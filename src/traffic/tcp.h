// Window-based TCP flow model over an LTE bearer. Classic NewReno-style
// dynamics driven by the data plane's delivery feedback: slow start /
// congestion avoidance, halving on (tail-drop) loss inferred from bearer
// queue occupancy. Used for the Table 2 maximum-TCP-throughput measurement
// and as the download engine of the DASH client (Fig. 11), where the
// congestion sawtooth after overshoot is exactly the behavior the paper's
// default player suffers from.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.h"
#include "util/stats.h"

namespace flexran::traffic {

inline constexpr std::uint32_t kMssBytes = 1460;
/// IP+TCP header overhead charged per MSS of payload.
inline constexpr std::uint32_t kHeaderBytes = 40;
inline constexpr std::uint32_t kInitialCwndBytes = 10 * kMssBytes;
inline constexpr std::uint32_t kMinCwndBytes = 2 * kMssBytes;
inline constexpr std::uint32_t kInitialSsthreshBytes = 65'535;
/// TTIs of post-loss quiescence (one wireless RTT) before cwnd can grow
/// again -- models fast-recovery's duplicate-ACK round.
inline constexpr int kLossCooldownTtis = 60;

struct TcpConfig {
  /// Bearer (RLC) queue depth at which the eNodeB would tail-drop; reaching
  /// it is treated as a congestion signal.
  std::uint32_t queue_limit_bytes = 120'000;
};

class TcpFlow {
 public:
  /// `enqueue` pushes wire bytes (payload + headers) onto the bearer.
  using EnqueueFn = std::function<void(std::uint32_t bytes)>;
  /// `queue_bytes` reads the bearer's current RLC queue occupancy.
  using QueueBytesFn = std::function<std::uint32_t()>;
  using CompletionFn = std::function<void()>;

  TcpFlow(sim::Simulator& sim, EnqueueFn enqueue, QueueBytesFn queue_bytes, TcpConfig config = {});

  /// Queues an application transfer (transfers run sequentially).
  void transfer(std::uint64_t bytes, CompletionFn on_complete = nullptr);
  /// Endless backlog (iperf/speedtest mode).
  void start_persistent() { persistent_ = true; }
  bool idle() const { return !persistent_ && transfers_.empty() && inflight_bytes_ == 0; }

  /// Wire from the data plane: payload bytes delivered to the UE. Only
  /// bytes belonging to this flow should be credited.
  void on_delivered(std::uint32_t bytes);
  /// Pump once per TTI: sends while the window allows.
  void on_tti(std::int64_t tti);

  std::uint64_t payload_delivered() const { return payload_delivered_; }
  std::uint32_t cwnd_bytes() const { return cwnd_; }
  std::uint64_t loss_events() const { return loss_events_; }
  /// Application goodput over the whole lifetime, Mb/s.
  double mean_goodput_mbps(double elapsed_s) const {
    return elapsed_s > 0 ? static_cast<double>(payload_delivered_) * 8.0 / elapsed_s / 1e6 : 0.0;
  }

 private:
  struct Transfer {
    std::uint64_t remaining = 0;
    CompletionFn on_complete;
  };

  void maybe_send();
  double wire_factor() const {
    return 1.0 + static_cast<double>(kHeaderBytes) / static_cast<double>(kMssBytes);
  }

  sim::Simulator& sim_;
  EnqueueFn enqueue_;
  QueueBytesFn queue_bytes_;
  TcpConfig config_;

  std::deque<Transfer> transfers_;
  bool persistent_ = false;

  std::uint32_t cwnd_ = kInitialCwndBytes;
  std::uint32_t ssthresh_ = kInitialSsthreshBytes;
  std::uint64_t inflight_bytes_ = 0;  // wire bytes enqueued, not yet delivered
  std::int64_t cooldown_until_tti_ = -1;
  std::int64_t current_tti_ = 0;

  std::uint64_t payload_delivered_ = 0;
  std::uint64_t loss_events_ = 0;
};

}  // namespace flexran::traffic
