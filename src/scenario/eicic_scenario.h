// The paper's Sec. 6.1 HetNet interference experiment, reusable by tests
// and the Fig. 10 bench: one macro cell (3 UEs, saturated) and one small
// cell (1 UE, lightly loaded) sharing a carrier in the interference
// environment, run under one of the three coordination modes.
#pragma once

#include "apps/eicic.h"

namespace flexran::scenario {

/// Offered load toward the small-cell UE; kept below the ABS capacity so
/// idle ABSs exist for the optimized mode to reclaim.
inline constexpr double kSmallCellOfferedMbps = 2.0;
/// Almost-blank subframes per 10-subframe frame of the macro's ABS pattern.
inline constexpr int kAbsPerFrame = 4;

struct EicicScenarioConfig {
  apps::EicicMode mode = apps::EicicMode::optimized;
  double warmup_s = 1.0;
  double measure_s = 5.0;
  std::uint64_t seed = 1;
};

struct EicicScenarioResult {
  double network_mbps = 0.0;
  double macro_mbps = 0.0;
  double small_mbps = 0.0;
};

EicicScenarioResult run_eicic_scenario(const EicicScenarioConfig& config);

}  // namespace flexran::scenario
