#include "apps/lsa.h"

namespace flexran::apps {

bool LsaControllerApp::incumbent_active_at(double now_seconds) const {
  for (const auto& window : config_.incumbent_windows) {
    if (now_seconds >= window.start_seconds && now_seconds < window.end_seconds) return true;
  }
  return false;
}

void LsaControllerApp::apply(ctrl::NorthboundApi& api, bool active) {
  const auto rib = api.rib_snapshot();
  std::vector<ctrl::AgentId> scope = config_.agents;
  if (scope.empty()) {
    for (const auto& [id, agent] : rib->agents()) {
      (void)agent;
      scope.push_back(id);
    }
  }
  for (const auto agent_id : scope) {
    const auto* agent = rib->find_agent(agent_id);
    proto::CarrierRestriction restriction;
    restriction.cell_id =
        agent != nullptr && !agent->cells.empty() ? agent->cells.front().id : 0;
    restriction.max_dl_prbs =
        active ? static_cast<std::uint16_t>(config_.restricted_prbs) : 0;
    if (api.send_carrier_restriction(agent_id, restriction).ok()) ++restrictions_sent_;
  }
}

void LsaControllerApp::on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) {
  if (config_.period_cycles > 0 && cycle % config_.period_cycles != 0) return;
  const bool active = incumbent_active_at(sim::to_seconds(api.now()));
  if (applied_once_ && active == incumbent_active_) return;
  incumbent_active_ = active;
  applied_once_ = true;
  apply(api, active);
}

}  // namespace flexran::apps
