// Mobile Edge Computing DASH-assist application (paper Sec. 6.2). Consumes
// the real-time CQI information in the RIB, smooths it with an exponential
// moving average, maps it through a measured CQI -> max-sustainable-bitrate
// table (the paper's Table 2), and pushes the result to the video client
// over an out-of-band channel (a callback here).
#pragma once

#include <functional>
#include <map>

#include "controller/app.h"

namespace flexran::apps {

/// CQI -> maximum sustainable video bitrate (Mb/s). Keys need not be dense;
/// lookups interpolate linearly and clamp at the ends.
using CqiBitrateTable = std::map<int, double>;

/// The paper's Table 2 mapping, measured on THIS repo's substrate by
/// bench_table2_cqi. Our PHY calibration charges more per-PRB overhead, so
/// sustainable bitrates sit lower than the paper's at equal CQI. This is the
/// table the MEC application uses -- a deployment would measure its own.
CqiBitrateTable calibrated_table2_bitrates();

/// Interpolated lookup.
double sustainable_bitrate_mbps(const CqiBitrateTable& table, double cqi);

class MecDashApp final : public ctrl::App {
 public:
  using PushBitrateFn = std::function<void(lte::Rnti, double mbps)>;

  struct Config {
    ctrl::AgentId agent = 0;
    /// Push period in task-manager cycles (the app is not time critical).
    std::int64_t period_cycles = 100;
    /// Divide the sustainable bitrate by the number of UEs sharing the
    /// cell: Table 2 is calibrated for a sole UE, and a fair scheduler
    /// gives each of N active UEs ~1/N of the carrier. Exactly the kind of
    /// decision only the RAN-side view enables.
    bool load_aware = true;
  };

  MecDashApp(Config config, PushBitrateFn push)
      : config_(std::move(config)), push_(std::move(push)) {}

  std::string_view name() const override { return "mec_dash"; }
  int priority() const override { return 150; }

  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;

 private:
  Config config_;
  const CqiBitrateTable table_ = calibrated_table2_bitrates();
  PushBitrateFn push_;
  std::map<lte::Rnti, double> last_pushed_;
};

}  // namespace flexran::apps
