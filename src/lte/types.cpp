#include "lte/types.h"

namespace flexran::lte {

int prb_count_for_bandwidth_mhz(double mhz) {
  // 36.101 Table 5.6-1.
  if (mhz <= 1.4) return 6;
  if (mhz <= 3.0) return 15;
  if (mhz <= 5.0) return 25;
  if (mhz <= 10.0) return 50;
  if (mhz <= 15.0) return 75;
  return 100;
}

}  // namespace flexran::lte
