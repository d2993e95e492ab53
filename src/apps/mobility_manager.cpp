#include "apps/mobility_manager.h"

namespace flexran::apps {

std::map<lte::CellId, MobilityManagerApp::CellRef> MobilityManagerApp::index_cells(
    const ctrl::RibSnapshot& rib) const {
  std::map<lte::CellId, CellRef> index;
  for (const auto& [agent_id, agent_node] : rib.agents()) {
    const auto& agent = *agent_node;
    for (const auto& cell : agent.cells) {
      CellRef ref;
      ref.agent = agent_id;
      ref.cell = cell.id;
      ref.connected_ues = cell.stats.active_ues;
      index[cell.id] = ref;
    }
  }
  return index;
}

void MobilityManagerApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  if (config_.period_cycles > 0 && cycle % config_.period_cycles != 0) return;
  const auto rib = api.rib_snapshot();
  // Readiness gate: while the master (or, on a composite view, any shard)
  // is still re-syncing after a restart, measurement state is partial and a
  // handover decided on it could bounce a UE to a cell we cannot see yet.
  if (rib->recovering()) return;
  const auto cells = index_cells(*rib);

  for (const auto& [agent_id, agent_node] : rib->agents()) {
    const auto& agent = *agent_node;
    if (agent.is_stale()) continue;
    for (const auto& ue : agent.ues) {
      if (ue.stats.rsrp.empty()) continue;
      const lte::CellId serving_cell_id = ue.cell;
      const ctrl::CellNode* cell = agent.find_cell(serving_cell_id);
      const double serving_load = cell != nullptr ? cell->stats.active_ues : 0.0;

      double serving_rsrp = -1e9;
      for (const auto& measurement : ue.stats.rsrp) {
        if (measurement.cell_id == serving_cell_id) serving_rsrp = measurement.rsrp_dbm;
      }
      if (serving_rsrp <= -1e8) continue;  // no serving measurement yet

      // Best neighbor after hysteresis and load penalty.
      lte::CellId best_cell = 0;
      double best_score = -1e9;  // RSRP is negative dBm
      for (const auto& measurement : ue.stats.rsrp) {
        if (measurement.cell_id == serving_cell_id) continue;
        auto target_it = cells.find(measurement.cell_id);
        if (target_it == cells.end()) continue;  // unmanaged cell
        const double load_delta =
            static_cast<double>(target_it->second.connected_ues) - serving_load;
        const double required = serving_rsrp + config_.hysteresis_db +
                                std::max(0.0, load_delta) * kLoadPenaltyDbPerUe;
        if (measurement.rsrp_dbm > required && measurement.rsrp_dbm > best_score) {
          best_score = measurement.rsrp_dbm;
          best_cell = measurement.cell_id;
        }
      }

      const auto key = std::pair{agent_id, ue.rnti};
      if (best_cell == 0) {
        streaks_.erase(key);
        continue;
      }
      if (++streaks_[key] < config_.evaluations_to_trigger) continue;
      streaks_.erase(key);

      proto::HandoverCommand command;
      command.rnti = ue.rnti;
      command.source_cell = serving_cell_id;
      command.target_cell = best_cell;
      if (api.send_handover(agent_id, command).ok()) ++handovers_commanded_;
    }
  }
}

}  // namespace flexran::apps
