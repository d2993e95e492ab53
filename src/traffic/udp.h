// Constant-bit-rate UDP traffic source, the workload of the paper's
// scalability, eICIC and RAN-sharing experiments ("uniform downlink UDP
// traffic was generated for all the UEs").
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.h"

namespace flexran::traffic {

class UdpCbrSource {
 public:
  /// `sink` receives packet payloads (e.g. EpcStub::downlink bound to a UE,
  /// or EnodebDataPlane::enqueue_ul).
  using SinkFn = std::function<void(std::uint32_t bytes)>;

  UdpCbrSource(sim::Simulator& sim, SinkFn sink, double rate_mbps,
               std::uint32_t packet_bytes = 1400)
      : sim_(sim), sink_(std::move(sink)), packet_bytes_(packet_bytes) {
    set_rate_mbps(rate_mbps);
  }

  void start();
  void stop() { running_ = false; }

  void set_rate_mbps(double rate_mbps);


 private:
  void emit();

  sim::Simulator& sim_;
  SinkFn sink_;
  std::uint32_t packet_bytes_;
  double rate_mbps_ = 0.0;
  sim::TimeUs interval_ = 0;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // invalidates stale timer chains
};

}  // namespace flexran::traffic
