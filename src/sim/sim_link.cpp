#include "sim/sim_link.h"

#include <algorithm>
#include <utility>

namespace flexran::sim {

TimeUs SimLink::serialization_delay(std::size_t bytes) const {
  if (config_.rate_bps <= 0) return 0;
  return static_cast<TimeUs>(static_cast<double>(bytes) * 8.0 / static_cast<double>(config_.rate_bps) * 1e6);
}

void SimLink::send(std::vector<std::uint8_t> frame) {
  if (down_) {
    ++packets_dropped_;
    sim_.frame_pool().give(std::move(frame));
    return;
  }
  ++packets_sent_;
  bytes_sent_ += frame.size();

  // Rate limiting: packets serialize back-to-back.
  const TimeUs start = std::max(sim_.now(), tx_free_at_);
  tx_free_at_ = start + serialization_delay(frame.size());

  TimeUs arrival = tx_free_at_ + config_.delay;
  if (config_.jitter > 0) arrival += static_cast<TimeUs>(rng_.uniform() * static_cast<double>(config_.jitter));
  if (config_.loss > 0.0 && rng_.chance(config_.loss)) {
    // TCP-style recovery: the payload still arrives, one RTT later.
    ++packets_retransmitted_;
    arrival += 2 * config_.delay;
  }
  // Preserve in-order delivery.
  arrival = std::max(arrival, last_delivery_);
  last_delivery_ = arrival;

  if (in_flight_count_ == in_flight_.size()) {
    // Full ring: double it, unrolled so the oldest frame lands at 0.
    std::vector<std::vector<std::uint8_t>> grown(std::max<std::size_t>(4, 2 * in_flight_.size()));
    for (std::size_t i = 0; i < in_flight_count_; ++i) {
      grown[i] = std::move(in_flight_[(head_ + i) & (in_flight_.size() - 1)]);
    }
    in_flight_ = std::move(grown);
    head_ = 0;
  }
  in_flight_[(head_ + in_flight_count_) & (in_flight_.size() - 1)] = std::move(frame);
  ++in_flight_count_;
  // Arrivals on this link never decrease and the simulator breaks time ties
  // in scheduling order, so this event fires after every earlier frame's:
  // the head of the FIFO is this frame.
  sim_.at(arrival, [this] { deliver_head(); });
}

void SimLink::deliver_head() {
  std::vector<std::uint8_t> frame = std::move(in_flight_[head_]);
  head_ = (head_ + 1) & (in_flight_.size() - 1);
  --in_flight_count_;
  if (deliver_) deliver_(frame);
  sim_.frame_pool().give(std::move(frame));
}

}  // namespace flexran::sim
