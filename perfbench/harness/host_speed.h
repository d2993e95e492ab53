// Host-speed reference for normalizing CPU times (README "Host-speed
// normalization").
//
// On a shared host the thread CPU clock does not remove the host: other
// tenants contend for the caches and memory system, and this benchmark's
// per-TTI CPU time moves by up to 1.7x over minutes while its work stays
// identical. Allocation-heavy code -- which the control loop is -- moves
// the most. So the benchmark measures the host alongside the program: a
// helper process, forked at start-up with a small clean heap and pinned to
// the benchmark's CPU, runs a fixed malloc/free kernel on request and
// reports its CPU time. The kernel is the benchmark's own code; the program
// under test reaches it only through the caches they share, which moved it
// by about 1% when tested (README). Its CPU time tracks the host's state
// (correlation 0.7 to 0.9 with the program's per-window TTI time).
//
// A CPU time t measured while the kernel took r is reported as
// t * kReferenceNs / r: the time it would take on a host where the kernel
// takes exactly kReferenceNs.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// CPU time the reference kernel takes on the nominal host.
  static constexpr double kReferenceNs = 1'000'000.0;

  /// Pins the calling process to the CPU it runs on and forks the helper.
  /// Construct before the program under test allocates anything.
  HostSpeed();
  /// Closes the request pipe and waits for the helper to exit.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the reference kernel once in the helper; returns its CPU time.
  std::int64_t sample();

 private:
  int request_fd_ = -1;
  int response_fd_ = -1;
  pid_t helper_ = -1;
};

/// Scale factor kReferenceNs / median(samples).
double speed_factor(std::vector<std::int64_t> samples);

}  // namespace perfbench
