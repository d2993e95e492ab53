// The FlexRAN Agent API (paper Sec. 4.2, Table 1): the southbound API
// through which ALL control of the eNodeB data plane flows -- whether the
// caller is the master controller (via protocol messages dispatched by the
// agent) or an agent-side VSF executing delegated control. The five call
// classes: configuration get/set, statistics, commands, event registration
// (handled by the agent's Reports & Events manager), and control delegation
// (handled by the VSF cache / control modules).
//
// The paper defines these calls in C; this implementation exposes the same
// surface as a thin C++ facade over the data plane.
#pragma once

#include <map>
#include <vector>

#include "stack/enodeb.h"

namespace flexran::agent {

class AgentApi {
 public:
  explicit AgentApi(stack::EnodebDataPlane& data_plane) : data_plane_(&data_plane) {}

  // ---- Configuration (Table 1: "Configuration") ---------------------------
  const lte::EnbConfig& enb_config() const { return data_plane_->config(); }
  std::vector<lte::UeConfig> ue_configs() const;
  std::vector<proto::LcConfigMsg> lc_configs() const;
  lte::CellId cell_id() const { return data_plane_->cell_id(); }
  std::int64_t current_subframe() const { return data_plane_->current_subframe(); }

  // ---- Statistics (Table 1: "Statistics") ----------------------------------
  /// One UE's report into a reused report (its RSRP list keeps its capacity).
  void ue_stats(lte::Rnti rnti, proto::UeStatsReport& out) const {
    data_plane_->ue_stats(rnti, out);
  }
  proto::CellStatsReport cell_stats() const { return data_plane_->cell_stats(); }
  /// Every UE context by RNTI, for per-TTI walks that must not allocate.
  const std::map<lte::Rnti, stack::UeContext>& ues() const { return data_plane_->ues(); }
  /// MAC-layer view for scheduling decisions (queue sizes, CQI, HARQ state).
  std::vector<stack::SchedUeInfo> scheduler_view() const {
    return data_plane_->scheduler_view();
  }
  /// scheduler_view() into a reused vector.
  void scheduler_view(std::vector<stack::SchedUeInfo>& out) const {
    data_plane_->scheduler_view(out);
  }
  /// Raw UE context (measurement data for RRC control, e.g. per-cell RSRP).
  const stack::UeContext* ue(lte::Rnti rnti) const { return data_plane_->ue(rnti); }

  // ---- Commands (Table 1: "Commands") ---------------------------------------
  util::Status apply_scheduling_decision(const lte::SchedulingDecision& decision) {
    return data_plane_->apply_scheduling_decision(decision);
  }
  void configure_abs(lte::AbsPattern pattern, bool mute_during_abs) {
    data_plane_->configure_abs(pattern, mute_during_abs);
  }
  util::Result<stack::UeProfile> trigger_handover(lte::Rnti rnti) {
    return data_plane_->trigger_handover(rnti);
  }
  util::Status configure_drx(lte::Rnti rnti, std::uint16_t cycle_ttis,
                             std::uint16_t on_duration_ttis) {
    return data_plane_->configure_drx(rnti, cycle_ttis, on_duration_ttis);
  }
  util::Status set_scell_active(lte::Rnti rnti, bool active) {
    return data_plane_->set_scell_active(rnti, active);
  }
  /// Secondary carrier PRBs (0 = no SCell configured).
  int scell_prbs() const { return data_plane_->scell_prbs(); }
  bool muted_in(std::int64_t subframe) const { return data_plane_->muted_in(subframe); }
  bool is_abs(std::int64_t subframe) const { return data_plane_->is_abs(subframe); }

  /// Usable DL PRBs after any LSA carrier restriction -- schedulers size
  /// their allocations from this, so a restriction takes effect everywhere.
  int dl_prbs() const { return data_plane_->effective_dl_prbs(); }
  int ul_prbs() const { return data_plane_->config().cells[0].ul_prbs(); }
  void restrict_dl_prbs(int max_dl_prbs) { data_plane_->restrict_dl_prbs(max_dl_prbs); }

 private:
  stack::EnodebDataPlane* data_plane_;  // not owned
};

}  // namespace flexran::agent
