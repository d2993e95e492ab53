// A minimal WiFi access-point data plane, built to substantiate the paper's
// Sec. 7.2 claim that FlexRAN's control machinery is technology-agnostic:
// "the number and type of the control modules and VSFs on the agent side
// would change to reflect the capabilities and needs of the new technology
// (e.g. no PDCP module for WiFi)".
//
// The model is deliberately small but real: stations have per-STA downlink
// queues and PHY rates; each 1 ms slot the active airtime scheduler divides
// the slot's airtime across backlogged stations, and CSMA contention burns
// an efficiency factor that falls with the number of contenders. Control
// and data planes are split exactly as in the LTE stack: the data plane
// only applies airtime allocations; deciding them is a VSF.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/simulator.h"
#include "util/result.h"

namespace flexran::wifi {

using StationId = std::uint32_t;

struct StationProfile {
  /// PHY rate toward this station (MCS/spatial streams folded in), Mb/s.
  double phy_rate_mbps = 120.0;
};

/// One slot's airtime allocation: station -> fraction of the slot, summing
/// to <= 1. Produced by the airtime-scheduler VSF, applied by the AP.
using AirtimeAllocation = std::map<StationId, double>;

/// What the airtime scheduler sees each slot.
struct StationView {
  StationId station = 0;
  std::uint32_t queue_bytes = 0;
  double phy_rate_mbps = 0.0;
};

class WifiApDataPlane {
 public:

  explicit WifiApDataPlane(sim::Simulator& sim) : sim_(sim) {}

  StationId add_station(StationProfile profile);
  void enqueue_dl(StationId station, std::uint32_t bytes);

  /// Scheduler inputs (the "statistics" half of the agent API).
  std::vector<StationView> station_view() const;

  /// The action API: applies one slot's allocation. Fractions are clamped;
  /// allocations to unknown or idle stations are ignored. Returns bytes
  /// delivered this slot.
  std::uint32_t apply_airtime(const AirtimeAllocation& allocation);

  /// Drives one 1 ms slot; the installed scheduler hook decides.
  using SchedulerHook = std::function<AirtimeAllocation(std::int64_t slot)>;
  void set_scheduler(SchedulerHook hook) { scheduler_ = std::move(hook); }
  void slot(std::int64_t index);

  std::uint64_t delivered_bytes(StationId station) const;

  /// CSMA efficiency for n contenders (1.0 down toward ~0.6).
  static double contention_efficiency(int backlogged_stations);

 private:
  struct Station {
    StationProfile profile;
    std::uint32_t queue_bytes = 0;
    std::uint64_t delivered = 0;
  };

  sim::Simulator& sim_;
  std::map<StationId, Station> stations_;
  SchedulerHook scheduler_;
  StationId next_station_ = 1;
};

}  // namespace flexran::wifi
