// Task Manager (paper Sec. 4.3.3): a non-preemptive loop operating in
// cycles of one TTI, each cycle split into two slots -- one for the RIB
// Updater (single writer; kUpdaterShare = 20% of the TTI) and one for the
// applications and the Event Notification Service (80%).
//
// Where the paper guarantees mutually exclusive RIB reads/writes by
// time-slicing one thread, this Task Manager guarantees it by data
// versioning (docs/controller_concurrency.md): the updater publishes an
// immutable RibSnapshot at the end of its slot and applications read only
// snapshots, so with `workers > 0` the updater slot of cycle N+1 overlaps
// the application slot of cycle N. Applications run on a worker pool in
// priority tiers -- all apps of one priority run concurrently, a lower
// priority tier starts only after the tier above it finished -- and their
// commands are captured in per-app batches (BatchingNorthbound) that the
// coordinator flushes in (priority, registration, enqueue) order when the
// slot is joined. With `workers == 0` cycles run inline on the calling
// thread exactly as in the original time-sliced design; the batched
// command path is used either way.
//
// In real-time mode the slot budgets are enforced (work that would overrun
// the updater budget is carried to the next cycle); in non-RT mode a cycle
// simply runs to completion. Every cycle, in both modes, the coordinator
// times each stage with a monotonic clock into one CycleStages table --
// these timings are the Fig. 8 series and the only source of cycle-stage
// metrics. Per-app wall times and overruns of the application-slot budget
// are tracked as well.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "controller/app.h"
#include "controller/command_batch.h"
#include "controller/rib_snapshot.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace flexran::ctrl {

/// Fraction of the TTI reserved for the RIB updater slot.
inline constexpr double kUpdaterShare = 0.20;

struct TaskManagerConfig {
  /// Real-time mode: cycles of one TTI (sim::kTtiUs) with enforced slot
  /// budgets. Non-RT: the caller paces cycles and each runs to completion.
  bool real_time = true;
  /// Application-slot worker threads. 0 = run apps inline on the
  /// coordinator thread (the original time-sliced behavior); >= 1 =
  /// pipelined mode (apps of cycle N overlap the updater of cycle N+1).
  int workers = 0;
};

/// Wall time of each cycle stage in microseconds, one sample per cycle.
/// Written by the coordinator thread only; in pipelined mode `apps` and
/// `flush` are added when the cycle's slot is retired, so every count
/// equals cycles_run() after quiesce().
struct CycleStages {
  util::RunningStats updater;  // updater slot: drain + overload step + publish
  util::RunningStats publish;  // snapshot publish (the tail of the updater slot)
  util::RunningStats event;    // Event Notification Service dispatch
  util::RunningStats apps;     // application slot, excluding event and flush
  util::RunningStats flush;    // command-batch flush onto the wire
};

class TaskManager {
 public:
  /// `updater` drains pending agent messages into the RIB. It receives its
  /// slot budget in microseconds (<=0 = unbounded).
  using UpdaterFn = std::function<void(std::int64_t budget_us)>;
  /// `publish` ends the updater slot by publishing the cycle's RibSnapshot
  /// (required in pipelined mode: the slot dispatched next reads it).
  using PublishFn = std::function<void()>;
  /// `event_dispatch` runs the Event Notification Service (start of the
  /// application slot, always on the coordinator thread).
  using EventDispatchFn = std::function<void()>;
  using SnapshotFn = std::function<std::shared_ptr<const RibSnapshot>()>;
  using NowFn = std::function<sim::TimeUs()>;

  TaskManager(TaskManagerConfig config, UpdaterFn updater, PublishFn publish,
              EventDispatchFn event_dispatch);
  ~TaskManager();

  TaskManager(const TaskManager&) = delete;
  TaskManager& operator=(const TaskManager&) = delete;

  /// Wires the snapshot source apps are pinned to at dispatch. Without it,
  /// app proxies pass reads straight through to the downstream api (only
  /// sensible with workers == 0; direct-construction tests do this).
  void set_snapshot_source(SnapshotFn snapshot, NowFn now);
  /// DL arbitration hooks threaded into every app proxy; set before the
  /// first add_app.
  void set_command_hooks(BatchingNorthbound::Hooks hooks) { hooks_ = std::move(hooks); }

  /// Registers an application; apps run each cycle ordered by priority()
  /// (lowest value first). Ownership stays with the caller (master). The
  /// app talks to `api` only through its batching proxy.
  void add_app(App* app, NorthboundApi& api);
  /// Deregisters at the next cycle boundary if a cycle or an application
  /// slot is in flight (so an app is never destroyed mid-on_cycle and its
  /// final command batch still flushes), immediately otherwise.
  void remove_app(std::string_view name);
  /// Paused apps stay registered but are skipped. Takes effect at the next
  /// cycle boundary if a cycle or slot is in flight.
  util::Status set_paused(std::string_view name, bool paused);
  std::size_t app_count() const { return apps_.size(); }

  /// Runs one cycle. workers == 0: updater slot, then event dispatch +
  /// apps inline (each app's batch flushes right after it runs). workers
  /// >= 1: updater slot (overlapping the previous cycle's app slot), then
  /// join + flush the previous slot, then event dispatch, then dispatch
  /// this cycle's app slot to the pool.
  void run_cycle(std::int64_t cycle);

  /// Joins the in-flight application slot, if any, and flushes its command
  /// batches. Call before reading master state that the slot may still be
  /// producing (tests, teardown with live transports).
  void quiesce();
  /// Joins in-flight work, discards unflushed batches, and stops the
  /// worker pool. Called by the destructor; call earlier if the apps or
  /// transports die before this TaskManager does.
  void shutdown();

  std::int64_t cycles_run() const { return cycles_; }
  /// Per-stage wall times (docs/observability.md "Cycle-stage timing").
  const CycleStages& stages() const { return stages_; }
  const util::RunningStats& updater_time_us() const { return stages_.updater; }
  /// Mean fraction of the cycle spent idle (updater + event + apps + flush
  /// are busy). A real-time cycle is one TTI long; a non-real-time one
  /// lasts the mean simulated time between the caller's run_cycle calls.
  double mean_idle_fraction() const;

  /// Commands sent through batch flushes (all apps, all cycles).
  std::uint64_t commands_flushed() const { return commands_flushed_; }
  /// on_cycle calls whose wall time exceeded the application-slot budget.
  std::uint64_t app_overruns() const;
  /// Real-time cycles where the updater slot's wall time exceeded its
  /// budget (an overload-watchdog input, docs/overload_protection.md).
  std::uint64_t updater_overruns() const { return updater_overruns_; }

  struct AppStat {
    std::string name;
    std::uint64_t runs = 0;
    double mean_wall_us = 0.0;
    double max_wall_us = 0.0;
    std::uint64_t overruns = 0;
  };
  /// Per-app on_cycle wall-time statistics, in schedule order.
  std::vector<AppStat> app_stats() const;

 private:
  struct Entry {
    App* app = nullptr;
    bool paused = false;
    std::unique_ptr<BatchingNorthbound> proxy;
    util::RunningStats wall_us;  // guarded by mu_ in pipelined mode
    std::uint64_t overruns = 0;  // guarded by mu_ in pipelined mode
  };

  std::int64_t updater_budget_us() const;
  std::int64_t app_slot_budget_us() const;
  /// Non-paused entries in schedule order (the slot's working set; a copy,
  /// so reentrant add/remove cannot invalidate the iteration).
  std::vector<Entry*> runnable_entries() const;
  void run_slot_inline(std::int64_t cycle);
  void dispatch_slot(std::int64_t cycle);
  void join_and_flush();
  void apply_deferred();
  void worker_loop();

  TaskManagerConfig config_;
  UpdaterFn updater_;
  PublishFn publish_;
  EventDispatchFn event_dispatch_;
  SnapshotFn snapshot_fn_;
  NowFn now_fn_;
  BatchingNorthbound::Hooks hooks_;

  std::vector<std::unique_ptr<Entry>> apps_;  // sorted by priority (stable)
  std::int64_t cycles_ = 0;
  /// Non-real-time mode: simulated time of the first and latest cycle.
  sim::TimeUs first_cycle_at_ = 0;
  sim::TimeUs last_cycle_at_ = 0;
  CycleStages stages_;
  std::uint64_t commands_flushed_ = 0;
  std::uint64_t updater_overruns_ = 0;

  /// True while an application slot is executing inline on the coordinator
  /// (reentrancy guard: Entry pointers are being iterated).
  bool slot_busy_ = false;
  /// Mutations requested while a slot was in flight, applied at the next
  /// cycle boundary.
  std::vector<std::function<void()>> deferred_;

  // ---- pipelined mode --------------------------------------------------------
  /// In-flight slot state; guarded by mu_ once dispatched.
  struct Slot {
    bool active = false;
    std::int64_t cycle = 0;
    std::int64_t budget_us = 0;
    std::vector<std::vector<Entry*>> tiers;
    std::size_t tier = 0;
    std::size_t next = 0;     // next unclaimed entry in the current tier
    std::size_t running = 0;  // claimed but unfinished in the current tier
    std::chrono::steady_clock::time_point finished_at;
  };

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a tier has claimable entries
  std::condition_variable done_cv_;  // coordinator: the slot completed
  std::vector<std::thread> pool_;
  bool stop_workers_ = false;
  Slot slot_;

  /// Coordinator-side view of the dispatched slot (flush order + timing).
  bool inflight_ = false;
  std::vector<Entry*> inflight_entries_;
  std::chrono::steady_clock::time_point inflight_start_;
};

}  // namespace flexran::ctrl
