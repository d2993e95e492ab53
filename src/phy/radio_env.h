// Multi-cell radio environment with interference: per-UE received powers
// from every cell, SINR as a function of which interfering cells are
// actually transmitting in the current subframe. This is the substrate for
// the eICIC experiment (paper Sec. 6.1): during an almost-blank subframe a
// muted macro contributes no interference, so small-cell UEs see high SINR.
#pragma once

#include <map>
#include <set>

#include "lte/types.h"

namespace flexran::phy {

/// Thermal noise over 10 MHz (~ -174 dBm/Hz + 70 dB) plus a 7 dB UE noise
/// figure.
constexpr double kNoiseFloorDbm = -97.0;

/// 3GPP log-distance pathloss (TR 36.814 macro): PL(dB) = 128.1 + 37.6
/// log10(d_km).
double pathloss_db(double distance_km);

/// Typical transmit powers.
constexpr double kMacroTxPowerDbm = 46.0;
constexpr double kPicoTxPowerDbm = 30.0;

struct UeRadioProfile {
  lte::CellId serving_cell = 0;
  /// Received power per cell (serving included), dBm.
  std::map<lte::CellId, double> rx_power_dbm;
  double noise_dbm = kNoiseFloorDbm;

  /// SINR when `active_cells` (excluding the serving cell) are transmitting.
  double sinr_db(const std::set<lte::CellId>& active_cells) const;

  /// Convenience builder from geometry.
  static UeRadioProfile from_distances(lte::CellId serving, double serving_tx_dbm,
                                       double serving_distance_km,
                                       const std::map<lte::CellId, std::pair<double, double>>&
                                           interferers /* cell -> (tx_dbm, distance_km) */);
};

/// Tracks which cells transmit in the current subframe. The data plane marks
/// a cell active when its scheduler allocated any PRB; channel models that
/// depend on interference query SINR through this.
class RadioEnvironment {
 public:
  void set_transmitting(lte::CellId cell, bool active);
  bool transmitting(lte::CellId cell) const { return active_.contains(cell); }

  double sinr_db(const UeRadioProfile& profile) const;

 private:
  std::set<lte::CellId> active_;
};

}  // namespace flexran::phy
