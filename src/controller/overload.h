// Master overload watchdog (docs/overload_protection.md): a sliding-window
// detector over the RIB Updater's ingest queue. Each cycle it samples queue
// depth, shed counts and updater saturation; the resulting OverloadState
// (normal / elevated / critical) is published in the RIB snapshot, emitted
// as an Event Notification Service event on every transition, and drives
// the master's adaptive report throttling. Escalation is immediate (one bad
// window is one window too many at 1 ms cycles); de-escalation is one level
// per `kOverloadRecoveryCycles` consecutive clean cycles, so a flapping source
// cannot make the controller oscillate.
#pragma once

#include <cstdint>
#include <deque>

#include "net/flow_control.h"

namespace flexran::ctrl {

enum class OverloadState : std::uint8_t {
  normal = 0,
  /// Pressure building: queue past the elevated watermark or the updater
  /// saturating its slot, but nothing shed yet.
  elevated = 1,
  /// Actively shedding (or nearly full): periodic statistics are being
  /// dropped; commands and session traffic still flow.
  critical = 2,
};

const char* to_string(OverloadState state);

/// Sliding window length, in task-manager cycles.
inline constexpr std::size_t kOverloadWindowCycles = 50;
/// Queue depth fraction (messages or bytes, whichever is fuller) at which
/// the state becomes at least elevated / critical.
inline constexpr double kElevatedWatermark = 0.5;
inline constexpr double kCriticalWatermark = 0.85;
/// Consecutive clean cycles before de-escalating one level.
inline constexpr std::size_t kOverloadRecoveryCycles = 100;
/// Report-period multipliers applied on entering each state; while critical
/// persists with continued shedding, the multiplier doubles each full
/// window up to kMaxThrottleBackoff.
inline constexpr std::uint32_t kElevatedBackoff = 2;
inline constexpr std::uint32_t kCriticalBackoff = 4;
inline constexpr std::uint32_t kMaxThrottleBackoff = 16;

struct OverloadConfig {
  /// Budget for the master's pending-update (ingest) queue. Disabled
  /// (both limits 0, the default) turns the entire overload-protection
  /// layer off -- the seed behavior.
  net::QueueBudget ingest;
};

/// One cycle's observation, taken after the updater slot drained.
struct OverloadSample {
  /// Post-drain ingest-queue occupancy as a fraction of its budget.
  double depth_fraction = 0.0;
  /// Messages shed from the ingest queue since the previous sample.
  std::uint64_t shed_delta = 0;
  /// The updater hit its slot budget with messages still queued.
  bool updater_saturated = false;
};

class OverloadMonitor {
 public:
  /// Feeds one cycle's sample; returns true when the state changed.
  bool observe(const OverloadSample& sample);

  OverloadState state() const { return state_; }
  std::uint64_t transitions() const { return transitions_; }
  std::size_t clean_cycles() const { return clean_cycles_; }

 private:
  OverloadState target_state() const;

  std::deque<OverloadSample> window_;
  OverloadState state_ = OverloadState::normal;
  std::size_t clean_cycles_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace flexran::ctrl
