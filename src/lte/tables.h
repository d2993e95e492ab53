// Link-adaptation tables derived from 3GPP TS 36.213: CQI spectral
// efficiencies (Table 7.2.3-1), a wideband CQI->MCS mapping, and a transport
// block size model.
//
// TBS model (documented in DESIGN.md): instead of the full 36.213 Table
// 7.1.7.2.1-1 we compute bits = n_prb * data_re_per_prb * efficiency(mcs),
// with data_re_per_prb calibrated to 100 REs (168 per PRB-pair minus PDCCH,
// reference signals and PBCH/SCH overhead) so that 50 PRBs at CQI 15 yield
// ~27 Mb/s at PHY, matching the ~25 Mb/s application-level downlink the
// paper measures on 10 MHz / TM1 OAI (Fig. 6b).
#pragma once

#include <cstdint>

#include "lte/types.h"

namespace flexran::lte {

/// CQI index range: 0 (out of range) .. 15.
constexpr int kMinCqi = 0;
constexpr int kMaxCqi = 15;

/// MCS index range for PDSCH/PUSCH: 0..28.
constexpr int kMaxMcs = 28;

/// Spectral efficiency (bits per resource element) for a CQI index,
/// 36.213 Table 7.2.3-1. CQI 0 -> 0.
double cqi_efficiency(int cqi);

/// Wideband CQI -> MCS mapping used by every scheduler in this repo
/// (standard BLER<=10% operating point). CQI 0 -> -1 (do not schedule).
int cqi_to_mcs(int cqi);

/// Spectral efficiency for an MCS index (piecewise from the CQI table).
double mcs_efficiency(int mcs);

/// Highest CQI whose efficiency is <= the given efficiency (link
/// adaptation inverse); clamps into [0, 15].
int efficiency_to_cqi(double efficiency);

/// Resource elements usable for data per PRB-pair per TTI after control /
/// pilot overhead (calibration constant, see header comment).
constexpr int kDataRePerPrb = 100;

/// Transport block size in bits for `n_prb` PRBs at MCS `mcs`.
std::int64_t tbs_bits(int mcs, int n_prb);

/// Per-UE-category cap on transport block bits per TTI (36.306, cat 1-8
/// subset). Category 4 = 150752 bits.
std::int64_t category_max_tbs_bits(int ue_category);

/// SINR (dB) -> CQI via Shannon with an implementation-margin factor of
/// 0.75, quantized against the CQI efficiency table.
int sinr_db_to_cqi(double sinr_db);

/// Midpoint SINR (dB) that yields a given CQI (inverse of the above; used
/// by channel models specified directly in CQI terms).
double cqi_to_sinr_db(int cqi);

/// First-transmission block error probability when transmitting at `mcs`
/// to a UE whose channel supports `cqi`: ~10% at the matched operating
/// point, falling when conservative and rising steeply when aggressive.
double bler_for_mcs_at_cqi(int mcs, int cqi);

}  // namespace flexran::lte
