// UE mobility: a trajectory through a laid-out set of cell sites. Each TTI
// the data plane re-derives the UE's radio profile (per-cell received
// powers) from its interpolated position, so CQI, interference, and RRC
// measurement reports all follow the motion -- the substrate for the
// mobility-management use case the paper sketches in Sec. 7.1.
#pragma once

#include <vector>

#include "lte/types.h"
#include "phy/radio_env.h"
#include "sim/simulator.h"

namespace flexran::phy {

struct CellSite {
  lte::CellId cell = 0;
  double tx_power_dbm = kMacroTxPowerDbm;
  double x_km = 0.0;
  double y_km = 0.0;
};

class MobilityTrack {
 public:
  struct Waypoint {
    sim::TimeUs at = 0;
    double x_km = 0.0;
    double y_km = 0.0;
  };

  MobilityTrack(std::vector<CellSite> sites, std::vector<Waypoint> waypoints);

  /// Position at `now` (linear interpolation; clamped at the ends).
  Waypoint position_at(sim::TimeUs now) const;

  /// Radio profile at `now` with `serving` as the serving cell.
  UeRadioProfile profile_at(sim::TimeUs now, lte::CellId serving) const;


 private:
  std::vector<CellSite> sites_;
  std::vector<Waypoint> waypoints_;  // sorted by time
};

}  // namespace flexran::phy
