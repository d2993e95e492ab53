#include "scenario/metrics.h"

namespace flexran::scenario {

void Metrics::record(lte::EnbId enb, lte::Rnti rnti, lte::Direction direction,
                     std::uint32_t bytes) {
  const Key key{enb, rnti, direction};
  totals_[key] += bytes;
  window_bytes_[key] += bytes;
}

void Metrics::sample_window(sim::TimeUs now) {
  const double window_s = sim::to_seconds(now - window_start_);
  if (window_s <= 0) return;
  const double time_s = sim::to_seconds(now);
  // Every key ever seen gets a point (zero-rate windows included) so series
  // show gaps in service, e.g. DASH buffer freezes.
  for (const auto& [key, total] : totals_) {
    (void)total;
    const auto it = window_bytes_.find(key);
    const std::uint64_t bytes = it == window_bytes_.end() ? 0 : it->second;
    series_[key].add(time_s, mbps(bytes, window_s));
  }
  window_bytes_.clear();
  window_start_ = now;
}

std::uint64_t Metrics::total_bytes(lte::EnbId enb, lte::Rnti rnti,
                                   lte::Direction direction) const {
  auto it = totals_.find(Key{enb, rnti, direction});
  return it == totals_.end() ? 0 : it->second;
}

std::uint64_t Metrics::total_bytes_enb(lte::EnbId enb, lte::Direction direction) const {
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : totals_) {
    if (std::get<0>(key) == enb && std::get<2>(key) == direction) total += bytes;
  }
  return total;
}

}  // namespace flexran::scenario
