#include "apps/eicic.h"

#include <algorithm>

#include "apps/ran_sharing.h"
#include "lte/tables.h"

namespace flexran::apps {

const char* to_string(EicicMode mode) {
  switch (mode) {
    case EicicMode::uncoordinated: return "uncoordinated";
    case EicicMode::eicic: return "eicic";
    case EicicMode::optimized: return "optimized eicic";
  }
  return "?";
}

// ------------------------------------------------------------------- VSFs --

lte::SchedulingDecision EicicSmallCellDlVsf::schedule_dl(agent::AgentApi& api,
                                                         std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  // Small cells transmit only in protected (almost-blank) subframes.
  if (!api.is_abs(subframe)) return decision;

  std::vector<agent::PrbDemand> wants;
  for (const auto& info : api.scheduler_view()) {
    if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
    const int cqi = std::max(info.cqi_protected, 1);  // macro is quiet now
    const int mcs = lte::cqi_to_mcs(cqi);
    agent::PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted =
        info.pending_dl_retx > 0 ? api.dl_prbs() : agent::prbs_needed(info.dl_bits_needed, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;
  std::rotate(wants.begin(), wants.begin() + static_cast<std::ptrdiff_t>(rotation_ % wants.size()),
              wants.end());
  ++rotation_;
  decision.dl = agent::pack_dl_allocations(
      agent::equal_share_demands(std::move(wants), api.dl_prbs()), api.dl_prbs());
  return decision;
}

lte::SchedulingDecision EicicMacroDlVsf::schedule_dl(agent::AgentApi& api,
                                                     std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  // Locally honor the ABS pattern even without a data-plane mute: under
  // optimized eICIC those subframes belong to the central coordinator.
  if (api.is_abs(subframe) || api.muted_in(subframe)) return decision;

  std::vector<agent::PrbDemand> wants;
  for (const auto& info : api.scheduler_view()) {
    if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
    const int mcs = lte::cqi_to_mcs(std::max(info.cqi, 1));
    agent::PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted =
        info.pending_dl_retx > 0 ? api.dl_prbs() : agent::prbs_needed(info.dl_bits_needed, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;
  std::rotate(wants.begin(), wants.begin() + static_cast<std::ptrdiff_t>(rotation_ % wants.size()),
              wants.end());
  ++rotation_;
  decision.dl = agent::pack_dl_allocations(
      agent::equal_share_demands(std::move(wants), api.dl_prbs()), api.dl_prbs());
  return decision;
}

void register_usecase_vsfs() {
  static const bool registered = [] {
    agent::register_builtin_vsfs();
    auto& factory = agent::VsfFactory::instance();
    factory.register_implementation("mac", "dl_ue_scheduler", "eicic_small",
                                    [] { return std::make_unique<EicicSmallCellDlVsf>(); });
    factory.register_implementation("mac", "dl_ue_scheduler", "eicic_macro",
                                    [] { return std::make_unique<EicicMacroDlVsf>(); });
    factory.register_implementation("mac", "dl_ue_scheduler", "sliced",
                                    [] { return std::make_unique<SlicedDlVsf>(); });
    return true;
  }();
  (void)registered;
}

// ------------------------------------------------------------ coordinator --

void EicicCoordinatorApp::on_start(ctrl::NorthboundApi& api) {
  if (config_.mode == EicicMode::uncoordinated) return;  // nothing to configure

  // ABS pattern: the macro mutes only in static-eICIC mode; under optimized
  // eICIC the coordinator may hand ABSs back to the macro, so the data-plane
  // mute is off and the discipline lives in the eicic_macro VSF.
  proto::AbsConfig macro_abs;
  macro_abs.pattern = config_.pattern;
  macro_abs.mute_during_abs = config_.mode == EicicMode::eicic;
  (void)api.send_abs_config(config_.macro, macro_abs);

  proto::AbsConfig small_abs;
  small_abs.pattern = config_.pattern;
  small_abs.mute_during_abs = false;  // pattern marks protected subframes
  for (const auto small : config_.small_cells) {
    (void)api.send_abs_config(small, small_abs);
  }

  // Control delegation: push and activate the use-case VSFs.
  if (config_.mode == EicicMode::optimized) {
    (void)api.push_vsf(config_.macro, "mac", "dl_ue_scheduler", "eicic_macro");
    (void)api.send_policy(config_.macro,
                          "mac:\n  dl_ue_scheduler:\n    behavior: eicic_macro\n");
    for (const auto small : config_.small_cells) {
      // ABS scheduling is centralized; the local scheduler acts as a stub.
      (void)api.send_policy(small, "mac:\n  dl_ue_scheduler:\n    behavior: remote\n");
    }
  } else {
    for (const auto small : config_.small_cells) {
      (void)api.push_vsf(small, "mac", "dl_ue_scheduler", "eicic_small");
      (void)api.send_policy(small, "mac:\n  dl_ue_scheduler:\n    behavior: eicic_small\n");
    }
  }
}

std::uint64_t EicicCoordinatorApp::estimated_backlog(const ctrl::RibSnapshot& rib,
                                                     ctrl::AgentId small) {
  const auto* agent = rib.find_agent(small);
  if (agent == nullptr) return 0;
  std::uint64_t reported = 0;
  bool pending_retx = false;
  for (const auto& ue : agent->ues) {
    reported += std::max<std::uint64_t>(ue.stats.rlc_queue_bytes, ue.stats.total_bsr());
    pending_retx |= ue.stats.pending_harq > 0;
  }
  // Retire grants the latest report already reflects; subtract the rest.
  auto& grants = recent_grants_[small];
  while (!grants.empty() && grants.front().first <= agent->last_subframe) grants.pop_front();
  std::uint64_t outstanding = 0;
  for (const auto& [sf, bytes] : grants) {
    (void)sf;
    outstanding += bytes;
  }
  if (pending_retx) return std::max<std::uint64_t>(reported, 1);
  return reported > outstanding ? reported - outstanding : 0;
}

proto::DlMacConfig EicicCoordinatorApp::build_rr_decision(const ctrl::AgentNode& agent,
                                                          std::int64_t target,
                                                          bool use_protected_cqi,
                                                          std::uint64_t backlog_cap) {
  proto::DlMacConfig decision;
  decision.target_subframe = target;
  int prbs = 50;
  if (!agent.cells.empty()) {
    decision.cell_id = agent.cells.front().id;
    prbs = agent.cells.front().config.dl_prbs();
  }
  std::vector<agent::PrbDemand> wants;
  std::uint64_t cap_left = backlog_cap;
  for (const auto& ue : agent.ues) {
    const bool has_data = ue.stats.rlc_queue_bytes > 0 || ue.stats.total_bsr() > 0;
    if (!has_data && ue.stats.pending_harq == 0) continue;
    const int cqi =
        std::max<int>(use_protected_cqi ? ue.stats.wb_cqi_protected : ue.stats.wb_cqi, 1);
    const int mcs = lte::cqi_to_mcs(cqi);
    agent::PrbDemand demand;
    demand.rnti = ue.rnti;
    demand.mcs = mcs;
    const auto queue_bytes = std::min<std::uint64_t>(
        std::max(ue.stats.rlc_queue_bytes, ue.stats.total_bsr()), cap_left);
    cap_left -= queue_bytes;
    const auto bits = static_cast<std::int64_t>(static_cast<double>(queue_bytes) * 8.8);
    demand.prbs_wanted = ue.stats.pending_harq > 0 ? prbs : agent::prbs_needed(bits, mcs);
    if (demand.prbs_wanted > 0) wants.push_back(demand);
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

void EicicCoordinatorApp::on_cycle(std::int64_t /*cycle*/, ctrl::NorthboundApi& api) {
  if (config_.mode != EicicMode::optimized) return;  // static modes need no cycle work

  const auto rib = api.rib_snapshot();
  const auto* macro = rib->find_agent(config_.macro);
  if (macro == nullptr || macro->last_subframe == 0) return;

  const std::int64_t target = macro->last_subframe + config_.schedule_ahead_sf;
  std::int64_t& last = last_target_[config_.macro];
  if (last == 0) last = target - 1;
  if (last < macro->last_subframe) last = macro->last_subframe;

  for (int issued = 0; last < target && issued < 4; ++issued) {
    ++last;
    if (!config_.pattern.is_abs(last)) continue;  // macro's own VSF handles non-ABS

    // Coordinated ABS scheduling: small cells first.
    bool any_small_scheduled = false;
    for (const auto small : config_.small_cells) {
      const std::uint64_t backlog = estimated_backlog(*rib, small);
      if (backlog == 0) continue;
      const auto* agent = rib->find_agent(small);
      if (agent == nullptr) continue;
      auto decision = build_rr_decision(*agent, last, /*use_protected_cqi=*/true, backlog);
      if (decision.dcis.empty()) continue;
      if (api.send_dl_mac_config(small, decision).ok()) {
        any_small_scheduled = true;
        // Remember what this decision will drain so the next estimate does
        // not double-count the reported queue.
        std::uint64_t granted_bytes = 0;
        for (const auto& dci : decision.dcis) {
          granted_bytes += static_cast<std::uint64_t>(dci.tbs() / 9);  // bits -> app bytes
        }
        recent_grants_[small].emplace_back(last, std::min(granted_bytes, backlog));
      }
    }
    // Idle ABS: hand it to the macro (the "optimized" in optimized eICIC).
    if (!any_small_scheduled) {
      auto decision = build_rr_decision(*macro, last, /*use_protected_cqi=*/false,
                                        UINT64_MAX);
      if (!decision.dcis.empty()) (void)api.send_dl_mac_config(config_.macro, decision);
    }
  }
}

}  // namespace flexran::apps
