#include "traffic/dash.h"

#include <algorithm>

namespace flexran::traffic {

DashVideo paper_video_low() { return {{1.2, 2.0, 4.0}, 2.0}; }

DashVideo paper_video_4k() { return {{2.9, 4.9, 7.3, 9.6, 14.6, 19.6}, 2.0}; }

DashClient::DashClient(sim::Simulator& sim, TcpFlow& flow, DashVideo video,
                       DashClientConfig config)
    : sim_(sim),
      flow_(flow),
      video_(std::move(video)),
      config_(config) {}

void DashClient::start() {
  started_ = true;
  maybe_request();
}

std::size_t DashClient::highest_under(double mbps) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < video_.bitrates_mbps.size(); ++i) {
    if (video_.bitrates_mbps[i] <= mbps) best = i;
  }
  return best;
}

std::size_t DashClient::choose_index() const {
  if (config_.mode == AbrMode::assisted) {
    if (bitrate_cap_mbps_ <= 0.0) return 0;
    return highest_under(bitrate_cap_mbps_);
  }
  // Reference player: throughput rule ...
  std::size_t choice = 0;
  if (throughput_estimate_mbps_.seeded()) {
    choice = highest_under(kDashSafetyFactor * throughput_estimate_mbps_.value());
  }
  // ... plus buffer-confidence probing: with a comfortable buffer, step one
  // level above the current representation even beyond the estimate.
  if (config_.buffer_probing && buffer_s_ >= config_.step_up_buffer_s &&
      current_index_ + 1 < video_.bitrates_mbps.size()) {
    choice = std::max(choice, current_index_ + 1);
  }
  return choice;
}

void DashClient::maybe_request() {
  if (!started_ || downloading_ || buffer_s_ >= config_.max_buffer_s) return;
  current_index_ = choose_index();
  const double segment_bits = video_.bitrates_mbps[current_index_] * 1e6 * video_.segment_seconds;
  downloading_ = true;
  segment_request_time_ = sim_.now();
  flow_.transfer(static_cast<std::uint64_t>(segment_bits / 8.0), [this] { on_segment_complete(); });
}

void DashClient::on_segment_complete() {
  const double elapsed_s = sim::to_seconds(sim_.now() - segment_request_time_);
  const double segment_bits = video_.bitrates_mbps[current_index_] * 1e6 * video_.segment_seconds;
  if (elapsed_s > 0) throughput_estimate_mbps_.add(segment_bits / elapsed_s / 1e6);
  buffer_s_ += video_.segment_seconds;
  ++segments_downloaded_;
  downloading_ = false;
  maybe_request();
}

void DashClient::on_tti(std::int64_t /*tti*/) {
  if (!started_) return;

  // Playback state machine.
  if (!playing_) {
    if (buffer_s_ >= (frozen_ ? kDashRebufferTargetS : kDashStartupBufferS)) {
      playing_ = true;
      frozen_ = false;
    } else if (frozen_) {
      total_freeze_s_ += 0.001;
    }
  } else {
    buffer_s_ = std::max(0.0, buffer_s_ - 0.001);
    if (buffer_s_ <= 0.0) {
      playing_ = false;
      frozen_ = true;
      ++freeze_count_;
    }
  }

  maybe_request();

  if (sim_.now() - last_sample_ >= kDashSamplePeriod) {
    const double t = sim::to_seconds(sim_.now());
    bitrate_series_.add(t, video_.bitrates_mbps[current_index_]);
    buffer_series_.add(t, buffer_s_);
    last_sample_ = sim_.now();
  }
}

}  // namespace flexran::traffic
