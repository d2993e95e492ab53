// Interference management example (paper Sec. 6.1): a HetNet with one
// macro and one small cell, run under the three coordination modes. Shows
// how the optimized eICIC application reclaims almost-blank subframes the
// small cell leaves idle.
//
//   ./examples/eicic
#include <cstdio>

#include "scenario/eicic_scenario.h"

using namespace flexran;

int main() {
  std::printf("HetNet: 1 macro (3 saturated UEs) + 1 small cell (1 UE @ 2 Mb/s offered)\n");
  std::printf("ABS pattern: %d almost-blank subframes per 10-subframe frame\n\n",
              scenario::kAbsPerFrame);
  std::printf("%-18s %12s %12s %12s\n", "mode", "network", "macro", "small cell");

  for (const auto mode : {apps::EicicMode::uncoordinated, apps::EicicMode::eicic,
                          apps::EicicMode::optimized}) {
    scenario::EicicScenarioConfig config;
    config.mode = mode;
    config.warmup_s = 1.0;
    config.measure_s = 5.0;
    const auto result = scenario::run_eicic_scenario(config);
    std::printf("%-18s %9.2f Mb/s %9.2f Mb/s %9.2f Mb/s\n", to_string(mode),
                result.network_mbps, result.macro_mbps, result.small_mbps);
  }
  std::printf(
      "\nOptimized eICIC gives ABSs the small cell does not need back to the\n"
      "macro, raising network throughput without hurting the small cell.\n");
  return 0;
}
