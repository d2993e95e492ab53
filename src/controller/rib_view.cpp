#include "controller/rib_view.h"

namespace flexran::ctrl {

namespace {

std::uint32_t agent_load(const AgentNode& agent) {
  std::uint32_t load = 0;
  for (const auto& cell : agent.cells) load += cell.stats.active_ues;
  return load;
}

}  // namespace

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

double cell_dl_utilization(const CellNode& cell) {
  const int total = cell.config.dl_prbs();
  if (total <= 0) return 0.0;
  return static_cast<double>(cell.stats.dl_prbs_in_use) / static_cast<double>(total);
}

std::optional<AgentId> least_loaded_agent(const RibSnapshot& snapshot) {
  std::optional<AgentId> best;
  std::uint32_t best_load = 0;
  for (const auto& [agent_id, agent] : snapshot.agents()) {
    const std::uint32_t load = agent_load(*agent);
    if (!best.has_value() || load < best_load) {
      best = agent_id;
      best_load = load;
    }
  }
  return best;
}

void RibAnalytics::sample(const RibSnapshot& snapshot, sim::TimeUs now) {
  const double dt_s = samples_ > 0 ? sim::to_seconds(now - last_sample_) : 0.0;
  for (const auto& [agent_id, agent] : snapshot.agents()) {
    for (const auto& cell : agent->cells) {
      cell_state_[{agent_id, cell.id}].utilization.add(cell_dl_utilization(cell));
    }
    for (const auto& ue : agent->ues) {
      auto& state = ue_state_[{agent_id, ue.rnti}];
      if (dt_s > 0.0) {
        const auto delta = ue.stats.dl_bytes_delivered - state.last_bytes;
        state.rate_mbps.add(static_cast<double>(delta) * 8.0 / dt_s / 1e6);
      }
      state.last_bytes = ue.stats.dl_bytes_delivered;
    }
  }
  last_sample_ = now;
  ++samples_;
}

double RibAnalytics::ue_dl_rate_mbps(AgentId agent, lte::Rnti rnti) const {
  auto it = ue_state_.find({agent, rnti});
  return it != ue_state_.end() && it->second.rate_mbps.seeded() ? it->second.rate_mbps.value()
                                                                : 0.0;
}

double RibAnalytics::cell_utilization(AgentId agent, lte::CellId cell) const {
  auto it = cell_state_.find({agent, cell});
  return it != cell_state_.end() && it->second.utilization.seeded()
             ? it->second.utilization.value()
             : 0.0;
}

}  // namespace flexran::ctrl
