#include "controller/overload.h"

#include <algorithm>

namespace flexran::ctrl {

const char* to_string(OverloadState state) {
  switch (state) {
    case OverloadState::normal: return "normal";
    case OverloadState::elevated: return "elevated";
    case OverloadState::critical: return "critical";
  }
  return "?";
}

bool OverloadMonitor::observe(const OverloadSample& sample) {
  window_.push_back(sample);
  if (window_.size() > kOverloadWindowCycles) window_.pop_front();

  const bool clean = sample.shed_delta == 0 && !sample.updater_saturated &&
                     sample.depth_fraction < kElevatedWatermark;
  clean_cycles_ = clean ? clean_cycles_ + 1 : 0;

  const OverloadState target = target_state();
  if (target > state_) {
    // Escalate immediately: at 1 ms cycles, waiting out a window means
    // shedding for its whole duration before reacting.
    state_ = target;
    clean_cycles_ = 0;
    ++transitions_;
    return true;
  }
  if (state_ > OverloadState::normal && clean_cycles_ >= kOverloadRecoveryCycles) {
    state_ = static_cast<OverloadState>(static_cast<std::uint8_t>(state_) - 1);
    clean_cycles_ = 0;
    ++transitions_;
    return true;
  }
  return false;
}

OverloadState OverloadMonitor::target_state() const {
  double max_depth = 0.0;
  bool shed = false;
  bool saturated = false;
  for (const auto& sample : window_) {
    max_depth = std::max(max_depth, sample.depth_fraction);
    shed = shed || sample.shed_delta > 0;
    saturated = saturated || sample.updater_saturated;
  }
  if (shed || max_depth >= kCriticalWatermark) return OverloadState::critical;
  if (saturated || max_depth >= kElevatedWatermark) return OverloadState::elevated;
  return OverloadState::normal;
}

}  // namespace flexran::ctrl
