#include "lte/tables.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace flexran::lte {

namespace {

// 36.213 Table 7.2.3-1: modulation efficiency in bits per RE.
constexpr std::array<double, 16> kCqiEfficiency = {
    0.0,     // 0: out of range
    0.1523,  // QPSK
    0.2344,  //
    0.3770,  //
    0.6016,  //
    0.8770,  //
    1.1758,  //
    1.4766,  // 16QAM from CQI 7 in the CQI table
    1.9141,  //
    2.4063,  //
    2.7305,  // 64QAM from CQI 10
    3.3223,  //
    3.9023,  //
    4.5234,  //
    5.1152,  //
    5.5547,  // 15
};

// Wideband CQI -> MCS at the <=10% BLER operating point.
constexpr std::array<int, 16> kCqiToMcs = {
    -1, 0, 2, 4, 6, 8, 11, 13, 15, 18, 20, 22, 24, 26, 27, 28,
};

}  // namespace

double cqi_efficiency(int cqi) {
  cqi = std::clamp(cqi, kMinCqi, kMaxCqi);
  return kCqiEfficiency[static_cast<std::size_t>(cqi)];
}

int cqi_to_mcs(int cqi) {
  cqi = std::clamp(cqi, kMinCqi, kMaxCqi);
  return kCqiToMcs[static_cast<std::size_t>(cqi)];
}

double mcs_efficiency(int mcs) {
  if (mcs < 0) return 0.0;
  mcs = std::min(mcs, kMaxMcs);
  // Invert the CQI->MCS mapping piecewise-linearly: between two mapped MCS
  // points, interpolate the CQI efficiencies.
  for (int cqi = kMaxCqi; cqi >= 1; --cqi) {
    const int mapped = kCqiToMcs[static_cast<std::size_t>(cqi)];
    if (mcs >= mapped) {
      if (cqi == kMaxCqi || mcs == mapped) return kCqiEfficiency[static_cast<std::size_t>(cqi)];
      const int next_mapped = kCqiToMcs[static_cast<std::size_t>(cqi + 1)];
      const double frac = static_cast<double>(mcs - mapped) / static_cast<double>(next_mapped - mapped);
      return kCqiEfficiency[static_cast<std::size_t>(cqi)] +
             frac * (kCqiEfficiency[static_cast<std::size_t>(cqi + 1)] -
                     kCqiEfficiency[static_cast<std::size_t>(cqi)]);
    }
  }
  return kCqiEfficiency[1];
}

int efficiency_to_cqi(double efficiency) {
  for (int cqi = kMaxCqi; cqi >= 1; --cqi) {
    if (kCqiEfficiency[static_cast<std::size_t>(cqi)] <= efficiency) return cqi;
  }
  return 0;
}

std::int64_t tbs_bits(int mcs, int n_prb) {
  if (mcs < 0 || n_prb <= 0) return 0;
  const double bits = static_cast<double>(n_prb) * kDataRePerPrb * mcs_efficiency(mcs);
  return static_cast<std::int64_t>(bits);
}

std::int64_t category_max_tbs_bits(int ue_category) {
  // 36.306 Table 4.1-1, max DL-SCH bits per TTI.
  switch (ue_category) {
    case 1: return 10296;
    case 2: return 51024;
    case 3: return 102048;
    case 4: return 150752;
    case 5: return 299552;
    case 6:
    case 7: return 301504;
    default: return 391656;  // cat 8+ (clamped)
  }
}

int sinr_db_to_cqi(double sinr_db) {
  const double sinr_linear = std::pow(10.0, sinr_db / 10.0);
  const double efficiency = 0.75 * std::log2(1.0 + sinr_linear);
  return efficiency_to_cqi(efficiency);
}

double cqi_to_sinr_db(int cqi) {
  cqi = std::clamp(cqi, 1, kMaxCqi);
  // Invert eff = 0.75*log2(1+snr) at the midpoint between this CQI's
  // efficiency and the next one's (so sinr_db_to_cqi round-trips).
  const double eff_lo = cqi_efficiency(cqi);
  const double eff_hi = cqi < kMaxCqi ? cqi_efficiency(cqi + 1) : eff_lo * 1.08;
  const double eff = 0.5 * (eff_lo + eff_hi);
  const double snr_linear = std::pow(2.0, eff / 0.75) - 1.0;
  return 10.0 * std::log10(snr_linear);
}

double bler_for_mcs_at_cqi(int mcs, int cqi) {
  if (cqi <= 0) return 1.0;
  const int matched = cqi_to_mcs(cqi);
  const int delta = mcs - matched;
  if (delta <= -3) return 0.0;
  if (delta == -2) return 0.01;
  if (delta == -1) return 0.03;
  if (delta == 0) return 0.10;  // standard operating point
  if (delta == 1) return 0.35;
  if (delta == 2) return 0.65;
  if (delta == 3) return 0.85;
  return 0.97;
}

}  // namespace flexran::lte
