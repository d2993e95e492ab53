#include "apps/mec_dash.h"

#include <algorithm>
#include <cmath>

namespace flexran::apps {

CqiBitrateTable calibrated_table2_bitrates() {
  // Measured by bench_table2_cqi against this repo's PHY calibration
  // (kDataRePerPrb = 100): highest bitrate playing with zero freezes.
  return {{2, 0.7}, {3, 1.0}, {4, 2.0}, {6, 4.0}, {10, 7.3}, {15, 11.0}};
}

double sustainable_bitrate_mbps(const CqiBitrateTable& table, double cqi) {
  if (table.empty()) return 0.0;
  auto upper = table.lower_bound(static_cast<int>(std::ceil(cqi)));
  if (upper == table.begin()) return upper->second;
  if (upper == table.end()) return std::prev(upper)->second;
  const auto lower = std::prev(upper);
  const double span = upper->first - lower->first;
  if (span <= 0) return lower->second;
  const double frac = (cqi - lower->first) / span;
  return lower->second + frac * (upper->second - lower->second);
}

void MecDashApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  if (config_.period_cycles > 0 && cycle % config_.period_cycles != 0) return;
  const auto rib = api.rib_snapshot();
  const auto* agent = rib->find_agent(config_.agent);
  if (agent == nullptr) return;
  for (const auto& ue : agent->ues) {
    if (!ue.cqi_avg.seeded()) continue;
    const ctrl::CellNode* cell = agent->find_cell(ue.cell);
    const double active_ues = cell != nullptr ? cell->stats.active_ues : 0.0;
    const double share_divisor = config_.load_aware ? std::max(1.0, active_ues) : 1.0;
    const double mbps =
        sustainable_bitrate_mbps(table_, ue.cqi_avg.value()) / share_divisor;
    auto it = last_pushed_.find(ue.rnti);
    if (it != last_pushed_.end() && it->second == mbps) continue;  // no change
    last_pushed_[ue.rnti] = mbps;
    if (push_) push_(ue.rnti, mbps);
  }
}

}  // namespace flexran::apps
