// Emulated-PHY channel models. A ChannelModel produces the wideband CQI a UE
// would report at a given time; the data-plane MAC samples it each CQI
// reporting period. The paper runs most experiments with OAI's PHY
// abstraction and controlled CQI (Secs. 5.2, 6.2); these models give the
// same control knobs.
#pragma once

#include <memory>
#include <vector>

#include "lte/tables.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace flexran::phy {

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;
  /// Wideband SINR seen by the UE at simulated time `now`.
  virtual double sinr_db(sim::TimeUs now) = 0;
  /// Reported wideband CQI at `now` (derived from SINR by default).
  virtual int cqi(sim::TimeUs now) { return lte::sinr_db_to_cqi(sinr_db(now)); }
};

/// Constant channel pinned to an exact CQI (Table 2 / Fig. 11 style).
class FixedCqiChannel final : public ChannelModel {
 public:
  explicit FixedCqiChannel(int cqi) : cqi_(cqi) {}
  double sinr_db(sim::TimeUs) override { return lte::cqi_to_sinr_db(cqi_); }
  int cqi(sim::TimeUs) override { return cqi_; }

 private:
  const int cqi_;
};

/// Piecewise-constant CQI schedule: [(t0, cqi0), (t1, cqi1), ...]. Used to
/// emulate the controlled channel fluctuations of the MEC experiment
/// (Fig. 11: CQI toggling 3<->2 and 10<->4).
class ScheduledCqiChannel final : public ChannelModel {
 public:
  struct Step {
    sim::TimeUs at;
    int cqi;
  };
  explicit ScheduledCqiChannel(std::vector<Step> steps);

  double sinr_db(sim::TimeUs now) override { return lte::cqi_to_sinr_db(cqi(now)); }
  int cqi(sim::TimeUs now) override;

  /// Convenience: square wave toggling between two CQIs.
  static std::unique_ptr<ScheduledCqiChannel> square_wave(int cqi_a, int cqi_b,
                                                          sim::TimeUs half_period,
                                                          sim::TimeUs total_duration);

 private:
  std::vector<Step> steps_;  // sorted by time
};

/// Replays a recorded CQI trace at a fixed sample period (holding the last
/// value past the end, or looping). Lets measured drive-test traces or
/// externally generated fading processes drive the emulated PHY.
class TraceCqiChannel final : public ChannelModel {
 public:
  TraceCqiChannel(std::vector<int> samples, sim::TimeUs sample_period, bool loop = false);

  double sinr_db(sim::TimeUs now) override { return lte::cqi_to_sinr_db(cqi(now)); }
  int cqi(sim::TimeUs now) override;

 private:
  std::vector<int> samples_;
  sim::TimeUs sample_period_;
  bool loop_;
};

/// Bounded random walk over SINR around a mean -- a cheap block-fading model
/// used to make remote scheduling decisions go stale with latency (Fig. 9).
class FadingChannel final : public ChannelModel {
 public:
  struct Config {
    double mean_sinr_db = 18.0;
    double stddev_db = 3.0;
    /// Coherence time: SINR is re-drawn (AR(1)) once per block.
    sim::TimeUs coherence = 20 * sim::kTtiUs;
    /// AR(1) memory in (0, 1); closer to 1 = slower fading.
    double memory = 0.85;
    std::uint64_t seed = 7;
  };
  explicit FadingChannel(Config config);

  double sinr_db(sim::TimeUs now) override;

 private:
  void advance_to(sim::TimeUs now);

  Config config_;
  util::Rng rng_;
  sim::TimeUs block_end_ = 0;
  double current_db_;
};

}  // namespace flexran::phy
