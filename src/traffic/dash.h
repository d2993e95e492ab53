// DASH adaptive video streaming model (paper Sec. 6.2). A client downloads
// fixed-duration segments over a TcpFlow, maintains a playback buffer, and
// adapts the bitrate per segment:
//
//  * reference mode -- models the dash.js reference player: a
//    throughput-rule (highest bitrate under safety_factor * estimated
//    throughput) combined with buffer-confidence step-ups (with a full
//    buffer the player probes one level higher regardless of the estimate,
//    which is how it ends up at 19.6 Mb/s over a 15 Mb/s link in Fig. 11b);
//  * assisted mode -- the bitrate is capped by the FlexRAN MEC application,
//    which maps RIB CQI averages to the maximum sustainable bitrate
//    (Table 2) and pushes it out-of-band.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "traffic/tcp.h"
#include "util/stats.h"

namespace flexran::traffic {

struct DashVideo {
  /// Available representations, Mb/s, ascending.
  std::vector<double> bitrates_mbps;
  double segment_seconds = 2.0;
};

/// The two test videos of the paper's MEC experiment.
DashVideo paper_video_low();   // 1.2 / 2 / 4 Mb/s
DashVideo paper_video_4k();    // 2.9 / 4.9 / 7.3 / 9.6 / 14.6 / 19.6 Mb/s

enum class AbrMode { reference, assisted };

/// Reference mode: the highest bitrate under this fraction of the estimated
/// throughput.
inline constexpr double kDashSafetyFactor = 0.8;
/// Buffered seconds before playback starts, and before it resumes after a
/// freeze.
inline constexpr double kDashStartupBufferS = 4.0;
inline constexpr double kDashRebufferTargetS = 4.0;
/// Smoothing of the per-segment throughput estimate.
inline constexpr double kDashEwmaAlpha = 0.4;
/// Sampling period of the bitrate/buffer time series.
inline constexpr sim::TimeUs kDashSamplePeriod = sim::from_seconds(0.5);

struct DashClientConfig {
  AbrMode mode = AbrMode::reference;
  double max_buffer_s = 60.0;
  /// reference: buffer level above which the player probes one level up
  /// (dash.js buffer-confidence behavior, the overshoot mechanism of
  /// Fig. 11b). Disabled by default -- pure throughput rule, the behavior
  /// the paper's Fig. 11a case exhibits.
  bool buffer_probing = false;
  double step_up_buffer_s = 16.0;
};

class DashClient {
 public:
  DashClient(sim::Simulator& sim, TcpFlow& flow, DashVideo video, DashClientConfig config = {});

  void start();
  /// Drive once per TTI (after the flow's on_tti).
  void on_tti(std::int64_t tti);

  /// Assisted mode: maximum sustainable bitrate pushed by the MEC app
  /// (out-of-band channel). <= 0 means "no guidance yet" -> lowest ladder.
  void set_bitrate_cap_mbps(double cap) { bitrate_cap_mbps_ = cap; }

  double buffer_seconds() const { return buffer_s_; }
  int freeze_count() const { return freeze_count_; }
  double total_freeze_seconds() const { return total_freeze_s_; }
  int segments_downloaded() const { return segments_downloaded_; }
  const util::TimeSeries& bitrate_series() const { return bitrate_series_; }
  const util::TimeSeries& buffer_series() const { return buffer_series_; }

 private:
  void maybe_request();
  void on_segment_complete();
  std::size_t choose_index() const;
  std::size_t highest_under(double mbps) const;

  sim::Simulator& sim_;
  TcpFlow& flow_;
  DashVideo video_;
  DashClientConfig config_;

  std::size_t current_index_ = 0;
  double buffer_s_ = 0.0;
  bool started_ = false;
  bool playing_ = false;
  bool downloading_ = false;
  bool frozen_ = false;
  double bitrate_cap_mbps_ = 0.0;

  util::Ewma throughput_estimate_mbps_{kDashEwmaAlpha};
  sim::TimeUs segment_request_time_ = 0;

  int freeze_count_ = 0;
  double total_freeze_s_ = 0.0;
  int segments_downloaded_ = 0;

  util::TimeSeries bitrate_series_;
  util::TimeSeries buffer_series_;
  sim::TimeUs last_sample_ = 0;
};

}  // namespace flexran::traffic
