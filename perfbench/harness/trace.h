// Span recording for the control-loop benchmark. Spans are opened and
// closed by the benchmark's own wrappers around each layer's public seam
// (transport, data-plane listener, application, ticker subscription); the
// program under test is not instrumented. Every timestamp is thread CPU
// time: the benchmark is single-threaded and does no I/O, so CPU time is
// the program's work minus whatever the shared host takes away.
//
// One span records its kind, start, end and parent (the enclosing open
// span). The simulated TTI number is the trace id. A span's self time is
// its length minus the time its child spans cover; summing self time per
// layer over a TTI gives exactly the TTI's length, which is what the
// self-time table prints.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Thread CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
std::int64_t cpu_ns();
/// Monotonic wall time in nanoseconds.
std::int64_t wall_ns();

/// Heap allocations made so far by the calling thread, as counted by the
/// benchmark binary's replacement operator new. Allocations made while an
/// AllocPause is alive (the tracer's own bookkeeping) are not counted.
std::uint64_t allocs();
struct AllocPause {
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

/// Layers of the program, named after its modules. `sim` is the event
/// loop itself: whatever part of a TTI no other span covers (link
/// delivery events, framing, the ticker).
enum class Layer : std::uint8_t { sim, stack, agent, net, controller, apps, traffic, kCount };
const char* to_string(Layer layer);

enum class Kind : std::uint8_t {
  tti,                   ///< root: one simulated TTI (sim)
  cycle,                 ///< Coordinator::run_cycle (controller)
  controller_rx,         ///< master-side receive callback (controller)
  command,               ///< NorthboundApi command from an app (controller)
  compose,               ///< Coordinator::rib_snapshot() from the global app (controller)
  stack_subframe,        ///< subframe_begin / subframe_end, merged per eNodeB (stack)
  agent_subframe,        ///< Listener::on_subframe_start, or one replayed report (agent)
  agent_event,           ///< other Listener callbacks (agent)
  agent_rx,              ///< agent-side receive callback (agent)
  net_send,              ///< Transport::send, both directions (net)
  app_remote_scheduler,  ///< App::on_cycle (apps)
  app_monitoring,
  app_global,
  traffic,               ///< traffic sources feeding the EPC / data plane (traffic)
  kCount
};
const char* to_string(Kind kind);
Layer layer_of(Kind kind);

/// Per-kind samples over the traced window: self time (us) and
/// allocations, one entry per span (per eNodeB and TTI for stack spans).
struct KindSamples {
  std::vector<double> self_us;
  std::vector<std::uint32_t> self_allocs;
  std::vector<std::uint32_t> total_allocs;
};

class Tracer {
 public:
  bool on() const { return on_; }
  /// Starts recording; the first `dump_ttis` TTIs are also kept verbatim
  /// for the Chrome trace dump.
  void start(std::size_t dump_ttis);
  void stop() { on_ = false; }
  void resume() { on_ = true; }

  void open(Kind kind, std::uint32_t key);
  void close();

  /// Brackets one TTI (the trace id) with its root span.
  void begin_tti(std::int64_t tti);
  /// Closes the root span and returns the TTI's length in ns.
  std::int64_t end_tti();

  const KindSamples& samples(Kind kind) const { return samples_[static_cast<std::size_t>(kind)]; }
  /// Sum of self time per layer over all traced TTIs, in ns.
  const std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>& layer_self_ns() const {
    return layer_total_ns_;
  }
  /// Length of each traced TTI (ns) and the part no child span covered.
  const std::vector<std::int64_t>& tti_ns() const { return tti_ns_; }
  const std::vector<std::int64_t>& tti_sim_self_ns() const { return tti_sim_self_ns_; }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    Kind kind = Kind::tti;
    std::uint32_t key = 0;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint64_t start_allocs = 0;
    std::uint64_t child_allocs = 0;
    std::int32_t parent_record = -1;
    std::int32_t record = -1;
  };
  struct Record {
    Kind kind;
    std::uint32_t key;
    std::int32_t parent;
    std::int64_t tti;
    std::int64_t start;
    std::int64_t end;
  };

  bool on_ = false;
  std::size_t dump_ttis_ = 0;
  std::size_t ttis_seen_ = 0;
  std::int64_t tti_ = 0;
  std::array<Open, 32> stack_{};
  std::size_t depth_ = 0;
  std::array<KindSamples, static_cast<std::size_t>(Kind::kCount)> samples_;
  /// Stack spans of the current TTI merged per eNodeB: (self ns, self allocs, allocs).
  std::map<std::uint32_t, std::array<std::int64_t, 3>> merged_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> layer_total_ns_{};
  std::vector<std::int64_t> tti_ns_;
  std::vector<std::int64_t> tti_sim_self_ns_;
  std::vector<Record> records_;
};

/// The process-wide tracer (the benchmark is single-threaded).
Tracer& tracer();

/// RAII span; does nothing while the tracer is off.
class Span {
 public:
  explicit Span(Kind kind, std::uint32_t key = 0) : on_(tracer().on()) {
    if (on_) tracer().open(kind, key);
  }
  ~Span() {
    if (on_) tracer().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
template <typename T>
double percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

}  // namespace perfbench
