// Mobility management application (paper Sec. 7.1): "the centralized
// network view offered by FlexRAN could enable more sophisticated mobility
// management mechanisms that consider additional factors, e.g. the load of
// cells". This app makes handover decisions at the master from the RRC
// measurement reports (per-cell RSRP) in the RIB, biased by target-cell
// load, and issues handover commands over the southbound API. The
// agent-side alternative is the A3HandoverVsf running locally.
#pragma once

#include <map>

#include "controller/app.h"

namespace flexran::apps {

/// Load awareness: extra dB of margin required per connected UE the target
/// cell has *more* than the serving cell.
inline constexpr double kLoadPenaltyDbPerUe = 0.5;

struct MobilityManagerConfig {
  /// A3-style margin: neighbor must beat serving RSRP by this much.
  double hysteresis_db = 3.0;
  /// Consecutive evaluations the condition must hold (time-to-trigger).
  int evaluations_to_trigger = 3;
  /// Evaluation period in task-manager cycles.
  std::int64_t period_cycles = 20;
};

class MobilityManagerApp final : public ctrl::App {
 public:
  explicit MobilityManagerApp(MobilityManagerConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "mobility_manager"; }
  int priority() const override { return 20; }

  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;

  std::uint64_t handovers_commanded() const { return handovers_commanded_; }

 private:
  struct CellRef {
    ctrl::AgentId agent = 0;
    lte::CellId cell = 0;
    std::uint32_t connected_ues = 0;
  };
  /// Cell -> owning agent and load, rebuilt per evaluation.
  std::map<lte::CellId, CellRef> index_cells(const ctrl::RibSnapshot& rib) const;

  MobilityManagerConfig config_;
  /// Time-to-trigger streaks, keyed (agent, rnti).
  std::map<std::pair<ctrl::AgentId, lte::Rnti>, int> streaks_;
  std::uint64_t handovers_commanded_ = 0;
};

}  // namespace flexran::apps
