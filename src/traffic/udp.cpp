#include "traffic/udp.h"

#include <algorithm>

namespace flexran::traffic {

void UdpCbrSource::set_rate_mbps(double rate_mbps) {
  rate_mbps_ = std::max(0.0, rate_mbps);
  if (rate_mbps_ <= 0.0) {
    interval_ = 0;
    return;
  }
  const double packets_per_second = rate_mbps_ * 1e6 / 8.0 / static_cast<double>(packet_bytes_);
  interval_ = std::max<sim::TimeUs>(1, static_cast<sim::TimeUs>(1e6 / packets_per_second));
}

void UdpCbrSource::start() {
  if (running_ || interval_ <= 0) return;
  running_ = true;
  const auto generation = ++generation_;
  sim_.after(interval_, [this, generation] {
    if (generation == generation_) emit();
  });
}

void UdpCbrSource::emit() {
  if (!running_) return;
  sink_(packet_bytes_);
  const auto generation = generation_;
  sim_.after(interval_, [this, generation] {
    if (generation == generation_) emit();
  });
}

}  // namespace flexran::traffic
