// Optimized eICIC interference management (paper Sec. 6.1). Three pieces:
//
//  * EicicSmallCellDlVsf -- agent-side DL scheduler for small cells:
//    schedules only during almost-blank subframes (when the macro is quiet)
//    using the protected-measurement CQI; inactive otherwise, exactly as in
//    standard eICIC.
//  * EicicMacroDlVsf -- agent-side DL scheduler for the macro: a round-robin
//    scheduler that locally skips ABSs. Under *optimized* eICIC the ABS
//    subframes are owned by the master's coordinator, which pushes macro
//    decisions for ABSs the small cells leave idle; the data-plane mute is
//    therefore disabled and ABS discipline moves into this VSF.
//  * EicicCoordinatorApp -- master application: configures the ABS pattern,
//    installs the VSFs by policy, and (optimized mode) performs the
//    centralized per-ABS scheduling with small-cell priority.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "agent/schedulers.h"
#include "controller/app.h"
#include "lte/abs.h"

namespace flexran::apps {

class EicicSmallCellDlVsf final : public agent::DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(agent::AgentApi& api, std::int64_t subframe) override;

 private:
  std::size_t rotation_ = 0;
};

class EicicMacroDlVsf final : public agent::DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(agent::AgentApi& api, std::int64_t subframe) override;

 private:
  std::size_t rotation_ = 0;
};

/// Registers eicic_small / eicic_macro / sliced with the VsfFactory
/// (idempotent); call before using the use-case policies.
void register_usecase_vsfs();

enum class EicicMode {
  uncoordinated,  // no ABS; every cell schedules independently
  eicic,          // static ABS: macro muted, small cells own ABSs
  optimized,      // + master re-assigns idle ABSs to the macro
};

const char* to_string(EicicMode mode);

struct EicicConfig {
  ctrl::AgentId macro = 0;
  std::vector<ctrl::AgentId> small_cells;
  lte::AbsPattern pattern = lte::AbsPattern::per_frame(4);
  EicicMode mode = EicicMode::optimized;
  /// Schedule-ahead for the centrally scheduled ABSs.
  int schedule_ahead_sf = 2;
};

class EicicCoordinatorApp final : public ctrl::App {
 public:
  explicit EicicCoordinatorApp(EicicConfig config) : config_(std::move(config)) {}

  std::string_view name() const override { return "eicic_coordinator"; }
  int priority() const override { return 2; }  // time critical

  void on_start(ctrl::NorthboundApi& api) override;
  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;


 private:
  /// Backlog estimate for a small cell: RIB-reported queue bytes minus the
  /// bytes this app already granted in decisions the report cannot reflect
  /// yet (in flight past the report's subframe). Without this correction
  /// the stale RIB view would waste almost every reclaimable ABS.
  std::uint64_t estimated_backlog(const ctrl::RibSnapshot& rib, ctrl::AgentId small);
  proto::DlMacConfig build_rr_decision(const ctrl::AgentNode& agent, std::int64_t target,
                                       bool use_protected_cqi, std::uint64_t backlog_cap);

  EicicConfig config_;
  std::map<ctrl::AgentId, std::int64_t> last_target_;
  std::map<ctrl::AgentId, std::size_t> rotation_;
  /// Per small cell: (target subframe, bytes granted) decisions in flight.
  std::map<ctrl::AgentId, std::deque<std::pair<std::int64_t, std::uint64_t>>> recent_grants_;
};

}  // namespace flexran::apps
