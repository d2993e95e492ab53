#include "apps/monitoring.h"

namespace flexran::apps {

void MonitoringApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  if (period_ > 0 && cycle % period_ != 0) return;
  ++snapshots_;
  const auto rib = api.rib_snapshot();
  // Both sides ascend by id: update the summaries in place, drop the ids
  // the snapshot no longer holds and insert the new ones, so a period with
  // an unchanged agent set frees and allocates no map node.
  auto it = summaries_.begin();
  for (const auto& [id, agent_node] : rib->agents()) {
    while (it != summaries_.end() && it->first < id) it = summaries_.erase(it);
    if (it == summaries_.end() || it->first != id) {
      it = summaries_.emplace_hint(it, id, AgentSummary{});
    }
    AgentSummary& summary = it->second;
    ++it;
    summary = AgentSummary{};
    double cqi_sum = 0.0;
    // Scan the SoA hot columns instead of walking cells -> UE map nodes:
    // same totals, contiguous memory (docs/wire_fastpath.md).
    const auto& hot = agent_node->hot;
    summary.ue_count = hot.size();
    for (std::size_t i = 0; i < hot.size(); ++i) {
      cqi_sum += hot.wb_cqi[i];
      summary.total_queue_bytes += hot.rlc_queue_bytes[i];
      summary.total_dl_bytes += hot.dl_bytes_delivered[i];
    }
    if (summary.ue_count > 0) summary.mean_cqi = cqi_sum / static_cast<double>(summary.ue_count);
  }
  summaries_.erase(it, summaries_.end());
}

}  // namespace flexran::apps
