#include "apps/remote_scheduler.h"

#include <algorithm>

#include "agent/schedulers.h"
#include "lte/tables.h"

namespace flexran::apps {

void RemoteSchedulerApp::on_cycle(std::int64_t /*cycle*/, ctrl::NorthboundApi& api) {
  const auto rib = api.rib_snapshot();
  // Readiness barrier (docs/fault_tolerance.md "Master restart"): a
  // recovering snapshot shows a half-rebuilt fleet whose agent state is
  // whatever survived the crash -- issue nothing until the barrier drops.
  // Agents keep serving UEs through their fallback VSFs meanwhile.
  if (rib->recovering()) return;
  std::vector<ctrl::AgentId> scope = config_.agents;
  if (scope.empty()) {
    for (const auto& [id, agent] : rib->agents()) {
      (void)agent;
      scope.push_back(id);
    }
  }

  for (const auto agent_id : scope) {
    const auto* agent = rib->find_agent(agent_id);
    if (agent == nullptr || agent->last_subframe == 0) continue;  // not synced yet
    if (agent->is_stale()) continue;  // unreachable; its fallback VSF has control
    if (demoted_.contains(agent_id)) continue;  // quarantined; local VSF has control

    const std::int64_t observed = agent->last_subframe;
    const std::int64_t target = observed + config_.schedule_ahead_sf;
    std::int64_t& last = last_target_[agent_id];
    if (last == 0) last = target - 1;
    // After a stall (app paused, master overloaded) skip straight past
    // subframes whose deadline already passed instead of burning the
    // per-cycle budget on them.
    if (last < observed) last = observed;

    int issued = 0;
    while (last < target && issued < kMaxDecisionsPerCycle) {
      ++last;
      auto decision = build_decision(*agent, last);
      if (!decision.dcis.empty() && api.send_dl_mac_config(agent_id, decision).ok()) {
        ++decisions_sent_;
        ++issued;
      }
      if (config_.schedule_ul) {
        auto ul_decision = build_ul_decision(*agent, last);
        if (!ul_decision.dcis.empty() && api.send_ul_mac_config(agent_id, ul_decision).ok()) {
          ++decisions_sent_;
        }
      }
    }
  }
}

void RemoteSchedulerApp::on_event(const ctrl::Event& event, ctrl::NorthboundApi& /*api*/) {
  switch (event.notification.event) {
    case proto::EventType::vsf_quarantined:
      if (demoted_.insert(event.agent).second) ++demotions_;
      break;
    case proto::EventType::policy_applied:
    case proto::EventType::agent_reconnected:
      // A valid policy is back in force (the master's rollback landed, or a
      // fresh session re-ran the handshake): resume remote decisions.
      demoted_.erase(event.agent);
      break;
    default:
      break;
  }
}

proto::DlMacConfig RemoteSchedulerApp::build_decision(const ctrl::AgentNode& agent,
                                                      std::int64_t target_subframe) {
  proto::DlMacConfig decision;
  decision.target_subframe = target_subframe;

  int prbs = 50;
  if (!agent.cells.empty()) {
    decision.cell_id = agent.cells.front().id;
    prbs = agent.cells.front().config.dl_prbs();
  }

  std::vector<agent::PrbDemand> wants;
  for (const auto& ue : agent.ues) {
    const bool has_data = ue.stats.rlc_queue_bytes > 0 || ue.stats.total_bsr() > 0;
    const bool has_retx = ue.stats.pending_harq > 0;
    if (!has_data && !has_retx) continue;
    const int cqi = std::max<int>(ue.stats.wb_cqi, 1);
    const int mcs = lte::cqi_to_mcs(cqi);
    agent::PrbDemand demand;
    demand.rnti = ue.rnti;
    demand.mcs = mcs;
    const auto bits = static_cast<std::int64_t>(
        static_cast<double>(std::max(ue.stats.rlc_queue_bytes, ue.stats.total_bsr())) * 8.0 *
        1.1);
    demand.prbs_wanted = has_retx ? prbs : agent::prbs_needed(bits, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;

  auto& rot = rotation_[agent.id];
  std::rotate(wants.begin(), wants.begin() + static_cast<std::ptrdiff_t>(rot % wants.size()),
              wants.end());
  ++rot;
  decision.dcis =
      agent::pack_dl_allocations(agent::equal_share_demands(std::move(wants), prbs), prbs);
  return decision;
}

proto::UlMacConfig RemoteSchedulerApp::build_ul_decision(const ctrl::AgentNode& agent,
                                                         std::int64_t target_subframe) {
  proto::UlMacConfig decision;
  decision.target_subframe = target_subframe;
  int prbs = 50;
  if (!agent.cells.empty()) {
    decision.cell_id = agent.cells.front().id;
    prbs = agent.cells.front().config.ul_prbs();
  }
  std::vector<agent::PrbDemand> wants;
  for (const auto& ue : agent.ues) {
    if (ue.stats.ul_buffer_bytes == 0) continue;
    // UL link adaptation: conservative fixed operating point (the master
    // does not see per-UE UL CQI; real deployments use SRS measurements).
    const int mcs = lte::cqi_to_mcs(8);
    agent::PrbDemand demand;
    demand.rnti = ue.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted =
        agent::prbs_needed(static_cast<std::int64_t>(ue.stats.ul_buffer_bytes) * 9, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;
  decision.dcis =
      agent::pack_ul_allocations(agent::equal_share_demands(std::move(wants), prbs), prbs);
  return decision;
}

}  // namespace flexran::apps
