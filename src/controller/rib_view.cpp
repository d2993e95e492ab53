#include "controller/rib_view.h"

namespace flexran::ctrl {

std::vector<UeSummary> summarize_ues(const RibSnapshot& snapshot) {
  std::vector<UeSummary> out;
  for (const auto& [agent_id, agent] : snapshot.agents()) {
    for (const auto& ue : agent->ues) {
      UeSummary summary;
      summary.agent = agent_id;
      summary.cell = ue.cell;
      summary.rnti = ue.rnti;
      summary.cqi = ue.stats.wb_cqi;
      summary.cqi_avg = ue.cqi_avg.seeded() ? ue.cqi_avg.value() : 0.0;
      summary.queue_bytes = ue.stats.rlc_queue_bytes;
      summary.dl_bytes_delivered = ue.stats.dl_bytes_delivered;
      for (const auto& measurement : ue.stats.rsrp) {
        if (measurement.cell_id == ue.cell) continue;
        if (measurement.rsrp_dbm > summary.best_neighbor_rsrp_dbm) {
          summary.best_neighbor_rsrp_dbm = measurement.rsrp_dbm;
          summary.best_neighbor = measurement.cell_id;
        }
      }
      out.push_back(summary);
    }
  }
  return out;
}

}  // namespace flexran::ctrl
