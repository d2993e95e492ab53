// Experiment metrics: per-UE / per-direction delivered-byte counters with
// optional windowed throughput time series (the raw material of Figs. 6b,
// 9, 10, 11, 12).
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "lte/types.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace flexran::scenario {

class Metrics {
 public:
  using Key = std::tuple<lte::EnbId, lte::Rnti, lte::Direction>;

  /// Credits delivered application bytes.
  void record(lte::EnbId enb, lte::Rnti rnti, lte::Direction direction, std::uint32_t bytes);

  /// Closes the current window at `now` and appends per-key Mb/s points to
  /// the time series. Call at a fixed period.
  void sample_window(sim::TimeUs now);

  std::uint64_t total_bytes(lte::EnbId enb, lte::Rnti rnti, lte::Direction direction) const;
  std::uint64_t total_bytes_enb(lte::EnbId enb, lte::Direction direction) const;

  /// Mean throughput over [from, to] in Mb/s from the cumulative counters
  /// sampled against wall (simulated) time; requires bytes recorded in that
  /// span -- usually computed by the caller from totals. Convenience:
  static double mbps(std::uint64_t bytes, double seconds) {
    return seconds > 0 ? static_cast<double>(bytes) * 8.0 / seconds / 1e6 : 0.0;
  }

  /// Windowed Mb/s series per key (empty if sampling never ran).
  const std::map<Key, util::TimeSeries>& all_series() const { return series_; }

 private:
  std::map<Key, std::uint64_t> totals_;
  std::map<Key, std::uint64_t> window_bytes_;
  std::map<Key, util::TimeSeries> series_;
  sim::TimeUs window_start_ = 0;
};

}  // namespace flexran::scenario
