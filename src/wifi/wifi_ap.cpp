#include "wifi/wifi_ap.h"

#include <algorithm>
#include <cmath>

namespace flexran::wifi {

StationId WifiApDataPlane::add_station(StationProfile profile) {
  const StationId id = next_station_++;
  stations_[id] = Station{profile, 0, 0};
  return id;
}

void WifiApDataPlane::enqueue_dl(StationId station, std::uint32_t bytes) {
  auto it = stations_.find(station);
  if (it != stations_.end()) it->second.queue_bytes += bytes;
}

std::vector<StationView> WifiApDataPlane::station_view() const {
  std::vector<StationView> out;
  out.reserve(stations_.size());
  for (const auto& [id, station] : stations_) {
    out.push_back({id, station.queue_bytes, station.profile.phy_rate_mbps});
  }
  return out;
}

double WifiApDataPlane::contention_efficiency(int backlogged_stations) {
  if (backlogged_stations <= 1) return 1.0;
  // DCF-style degradation: each extra contender costs collision/backoff
  // airtime, saturating around 60%.
  return std::max(0.6, 1.0 - 0.05 * (backlogged_stations - 1));
}

std::uint32_t WifiApDataPlane::apply_airtime(const AirtimeAllocation& allocation) {
  int backlogged = 0;
  for (const auto& [id, station] : stations_) {
    (void)id;
    if (station.queue_bytes > 0) ++backlogged;
  }
  const double efficiency = contention_efficiency(backlogged);

  double fraction_used = 0.0;
  std::uint32_t delivered_total = 0;
  for (const auto& [id, fraction] : allocation) {
    auto it = stations_.find(id);
    if (it == stations_.end() || it->second.queue_bytes == 0 || fraction <= 0.0) continue;
    const double share = std::min(fraction, 1.0 - fraction_used);
    if (share <= 0.0) break;
    fraction_used += share;

    // bytes = rate * slot(1ms) * share * efficiency.
    const double budget =
        it->second.profile.phy_rate_mbps * 1e6 / 8.0 / 1000.0 * share * efficiency;
    const auto take =
        static_cast<std::uint32_t>(std::min<double>(budget, it->second.queue_bytes));
    it->second.queue_bytes -= take;
    it->second.delivered += take;
    delivered_total += take;
  }
  return delivered_total;
}

void WifiApDataPlane::slot(std::int64_t index) {
  if (!scheduler_) return;
  const auto allocation = scheduler_(index);
  (void)apply_airtime(allocation);
}

std::uint64_t WifiApDataPlane::delivered_bytes(StationId station) const {
  auto it = stations_.find(station);
  return it == stations_.end() ? 0 : it->second.delivered;
}

}  // namespace flexran::wifi
