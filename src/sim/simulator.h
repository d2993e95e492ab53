// Single-threaded discrete-event simulator. All FlexRAN experiments run in
// simulated time so latency sweeps (paper Fig. 9) and long traffic runs
// (Figs. 10-12) are deterministic and fast. The LTE TTI (1 ms) is the
// platform's natural heartbeat; TtiTicker fans a per-TTI callback out to the
// data plane, the agents and the master controller task manager.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/recent_peak.h"

namespace flexran::sim {

/// Simulated time in microseconds since simulation start.
using TimeUs = std::int64_t;

constexpr TimeUs kUsPerMs = 1000;
constexpr TimeUs kUsPerSec = 1'000'000;
/// LTE Transmission Time Interval: one subframe, 1 ms.
constexpr TimeUs kTtiUs = kUsPerMs;

constexpr double to_seconds(TimeUs t) { return static_cast<double>(t) / 1e6; }
constexpr TimeUs from_seconds(double s) { return static_cast<TimeUs>(s * 1e6); }
constexpr TimeUs from_ms(double ms) { return static_cast<TimeUs>(ms * 1e3); }

/// Byte buffers for the frames in flight on one simulator's links
/// (SimLink), recycled so a steady stream of frames allocates nothing. One
/// pool serves every link of the simulator, so the buffers kept follow the
/// frames in flight at once, not the number of links. A round is a TTI in
/// which a buffer was taken; the spares are trimmed by util::RecentPeak.
class FramePool {
 public:
  /// An empty buffer, with the capacity of a recycled one when a spare is
  /// left. `tti` is the current TTI.
  std::vector<std::uint8_t> take(std::int64_t tti);
  /// Returns a buffer taken from this pool once its frame is delivered or
  /// dropped. A buffer whose bytes were moved out comes back empty and is
  /// counted, not kept.
  void give(std::vector<std::uint8_t> buffer);

  std::size_t spare() const { return spare_.size(); }

 private:
  std::vector<std::vector<std::uint8_t>> spare_;
  /// Buffers taken and not yet given back.
  std::size_t out_ = 0;
  std::int64_t round_tti_ = -1;
  util::RecentPeak peak_;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  TimeUs now() const { return now_; }
  /// Subframe number (TTI count) at the current time.
  std::int64_t current_tti() const { return now_ / kTtiUs; }

  /// Schedule `fn` at absolute simulated time `when` (>= now).
  void at(TimeUs when, Callback fn);
  /// Schedule `fn` after `delay` microseconds.
  void after(TimeUs delay, Callback fn) { at(now_ + delay, std::move(fn)); }

  /// Run events until the queue empties or `stop()` is called.
  void run();
  /// Run events with time <= `until`; afterwards now() == until (unless
  /// stopped earlier).
  void run_until(TimeUs until);
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  FramePool& frame_pool() { return frame_pool_; }

 private:
  struct Event {
    TimeUs time;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    Callback fn;
  };

  bool heap_empty() const { return heap_.empty(); }
  TimeUs heap_top_time() const { return heap_.front().time; }
  Event pop_event();

  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::vector<Event> heap_;  // min-heap via std::push_heap/pop_heap
  FramePool frame_pool_;
};

/// Invokes subscribers at every TTI boundary, in subscription order.
/// Subscribers registered with a priority run lowest-priority-value first
/// (the data plane runs before the agent, which runs before traffic sinks).
class TtiTicker {
 public:
  using TtiCallback = std::function<void(std::int64_t tti)>;

  explicit TtiTicker(Simulator& sim) : sim_(sim) {}

  /// Lower `priority` runs earlier within the tick.
  void subscribe(TtiCallback fn, int priority = 100);

  /// Begin ticking at the next TTI boundary.
  void start();
  void stop() { running_ = false; }

 private:
  void tick();

  struct Subscriber {
    int priority;
    std::uint64_t order;
    TtiCallback fn;
  };

  Simulator& sim_;
  std::vector<Subscriber> subscribers_;
  std::uint64_t next_order_ = 0;
  bool running_ = false;
};

}  // namespace flexran::sim
