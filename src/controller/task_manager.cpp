#include "controller/task_manager.h"

#include <algorithm>
#include <utility>

namespace flexran::ctrl {

namespace {
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
double elapsed_us(Clock::time_point from) { return us_between(from, Clock::now()); }
}  // namespace

TaskManager::TaskManager(TaskManagerConfig config, UpdaterFn updater, PublishFn publish,
                         EventDispatchFn event_dispatch)
    : config_(config),
      updater_(std::move(updater)),
      publish_(std::move(publish)),
      event_dispatch_(std::move(event_dispatch)) {
  for (int i = 0; i < config_.workers; ++i) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

TaskManager::~TaskManager() { shutdown(); }

void TaskManager::set_snapshot_source(SnapshotFn snapshot, NowFn now) {
  snapshot_fn_ = std::move(snapshot);
  now_fn_ = std::move(now);
}

std::int64_t TaskManager::updater_budget_us() const {
  return config_.real_time
             ? static_cast<std::int64_t>(kUpdaterShare * static_cast<double>(sim::kTtiUs))
             : std::int64_t{0};
}

std::int64_t TaskManager::app_slot_budget_us() const {
  return config_.real_time ? sim::kTtiUs - updater_budget_us() : std::int64_t{0};
}

void TaskManager::add_app(App* app, NorthboundApi& api) {
  auto entry = std::make_unique<Entry>();
  entry->app = app;
  entry->proxy = std::make_unique<BatchingNorthbound>(api, hooks_);
  BatchingNorthbound& proxy = *entry->proxy;
  apps_.push_back(std::move(entry));
  std::stable_sort(apps_.begin(), apps_.end(),
                   [](const std::unique_ptr<Entry>& a, const std::unique_ptr<Entry>& b) {
                     return a->app->priority() < b->app->priority();
                   });
  // on_start runs on the coordinator with the proxy in pass-through mode
  // (not pinned), so direct sends behave exactly as before. A newly added
  // app joins the schedule from the next dispatched slot.
  app->on_start(proxy);
}

void TaskManager::remove_app(std::string_view name) {
  if (slot_busy_ || inflight_) {
    deferred_.emplace_back([this, name = std::string(name)] { remove_app(name); });
    return;
  }
  std::erase_if(apps_, [name](const std::unique_ptr<Entry>& entry) {
    return entry->app->name() == name;
  });
}

util::Status TaskManager::set_paused(std::string_view name, bool paused) {
  for (auto& entry : apps_) {
    if (entry->app->name() != name) continue;
    if (slot_busy_ || inflight_) {
      deferred_.emplace_back(
          [this, name = std::string(name), paused] { (void)set_paused(name, paused); });
    } else {
      entry->paused = paused;
    }
    return {};
  }
  return util::Error::not_found("no app named " + std::string(name));
}

std::vector<TaskManager::Entry*> TaskManager::runnable_entries() const {
  std::vector<Entry*> entries;
  entries.reserve(apps_.size());
  for (const auto& entry : apps_) {
    if (!entry->paused) entries.push_back(entry.get());
  }
  return entries;
}

void TaskManager::run_cycle(std::int64_t cycle) {
  ++cycles_;
  if (!config_.real_time && now_fn_) {
    // The caller paces a non-real-time master: remember when it cycles.
    last_cycle_at_ = now_fn_();
    if (cycles_ == 1) first_cycle_at_ = last_cycle_at_;
  }

  // Slot 1: the RIB updater (sole writer; this thread), ending with the
  // snapshot publish. In pipelined mode the previous cycle's applications
  // are still running against their snapshot while the updater mutates the
  // live RIB -- that overlap is the point of snapshot versioning.
  const auto updater_start = Clock::now();
  if (updater_) updater_(updater_budget_us());
  const auto publish_start = Clock::now();
  if (publish_) publish_();
  const auto updater_end = Clock::now();
  const double updater_us = us_between(updater_start, updater_end);
  stages_.updater.add(updater_us);
  stages_.publish.add(us_between(publish_start, updater_end));
  if (config_.real_time && updater_us > static_cast<double>(updater_budget_us())) {
    ++updater_overruns_;
  }

  if (config_.workers <= 0) {
    slot_busy_ = true;
    run_slot_inline(cycle);
    slot_busy_ = false;
    apply_deferred();
    return;
  }

  // Pipelined: retire the previous application slot (join workers, flush
  // its command batches in schedule order), then dispatch this cycle's.
  join_and_flush();
  const auto events_start = Clock::now();
  if (event_dispatch_) event_dispatch_();
  stages_.event.add(elapsed_us(events_start));
  dispatch_slot(cycle);
}

void TaskManager::run_slot_inline(std::int64_t cycle) {
  // Slot 2: Event Notification Service, then the applications in priority
  // order (non-preemptive). Each app runs pinned to the cycle's snapshot
  // and its batch flushes immediately after it returns, preserving the
  // original per-app command ordering on the wire.
  const auto events_start = Clock::now();
  if (event_dispatch_) event_dispatch_();
  const auto apps_start = Clock::now();
  stages_.event.add(us_between(events_start, apps_start));
  const std::int64_t budget = app_slot_budget_us();
  double flush_us = 0.0;
  for (Entry* entry : runnable_entries()) {
    const auto snapshot = snapshot_fn_ ? snapshot_fn_() : nullptr;
    if (snapshot != nullptr) {
      entry->proxy->pin(snapshot, now_fn_ ? now_fn_() : entry->proxy->now());
    }
    const auto app_start = Clock::now();
    entry->app->on_cycle(cycle, *entry->proxy);
    const auto app_end = Clock::now();
    const double wall = us_between(app_start, app_end);
    entry->wall_us.add(wall);
    if (budget > 0 && wall > static_cast<double>(budget)) ++entry->overruns;
    if (snapshot != nullptr) {
      commands_flushed_ += entry->proxy->flush();
      flush_us += elapsed_us(app_end);
    }
  }
  stages_.apps.add(std::max(0.0, elapsed_us(apps_start) - flush_us));
  stages_.flush.add(flush_us);
}

void TaskManager::dispatch_slot(std::int64_t cycle) {
  const auto snapshot = snapshot_fn_ ? snapshot_fn_() : nullptr;
  auto entries = runnable_entries();
  if (snapshot == nullptr || entries.empty()) {
    // Nothing to run concurrently (or no snapshot source wired): degrade
    // to the inline path so reads stay safe.
    slot_busy_ = true;
    const auto start = Clock::now();
    const std::int64_t budget = app_slot_budget_us();
    for (Entry* entry : entries) {
      const auto app_start = Clock::now();
      entry->app->on_cycle(cycle, *entry->proxy);
      const double wall = elapsed_us(app_start);
      std::lock_guard<std::mutex> lock(mu_);
      entry->wall_us.add(wall);
      if (budget > 0 && wall > static_cast<double>(budget)) ++entry->overruns;
    }
    stages_.apps.add(elapsed_us(start));
    stages_.flush.add(0.0);  // unpinned proxies pass commands straight through
    slot_busy_ = false;
    apply_deferred();
    return;
  }

  const sim::TimeUs now = now_fn_ ? now_fn_() : 0;
  for (Entry* entry : entries) entry->proxy->pin(snapshot, now);

  // Group into priority tiers: equal-priority apps run concurrently; a
  // tier starts only after the one above it completed.
  std::vector<std::vector<Entry*>> tiers;
  for (Entry* entry : entries) {
    if (tiers.empty() || tiers.back().front()->app->priority() != entry->app->priority()) {
      tiers.emplace_back();
    }
    tiers.back().push_back(entry);
  }

  inflight_ = true;
  inflight_entries_ = std::move(entries);
  inflight_start_ = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot_.active = true;
    slot_.cycle = cycle;
    slot_.budget_us = app_slot_budget_us();
    slot_.tiers = std::move(tiers);
    slot_.tier = 0;
    slot_.next = 0;
    slot_.running = 0;
  }
  work_cv_.notify_all();
}

void TaskManager::join_and_flush() {
  if (!inflight_) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return !slot_.active; });
  }
  stages_.apps.add(us_between(inflight_start_, slot_.finished_at));
  const auto flush_start = Clock::now();
  for (Entry* entry : inflight_entries_) commands_flushed_ += entry->proxy->flush();
  stages_.flush.add(elapsed_us(flush_start));
  inflight_ = false;
  inflight_entries_.clear();
  apply_deferred();
}

void TaskManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_workers_ ||
             (slot_.active && slot_.next < slot_.tiers[slot_.tier].size());
    });
    if (stop_workers_) return;
    Entry* entry = slot_.tiers[slot_.tier][slot_.next++];
    ++slot_.running;
    const std::int64_t cycle = slot_.cycle;
    const std::int64_t budget = slot_.budget_us;
    lock.unlock();

    const auto start = Clock::now();
    entry->app->on_cycle(cycle, *entry->proxy);
    const double wall = elapsed_us(start);

    lock.lock();
    entry->wall_us.add(wall);
    if (budget > 0 && wall > static_cast<double>(budget)) ++entry->overruns;
    --slot_.running;
    if (slot_.running == 0 && slot_.next >= slot_.tiers[slot_.tier].size()) {
      // Tier complete: open the next one, or retire the slot.
      ++slot_.tier;
      if (slot_.tier >= slot_.tiers.size()) {
        slot_.active = false;
        slot_.finished_at = Clock::now();
        done_cv_.notify_all();
      } else {
        slot_.next = 0;
        work_cv_.notify_all();
      }
    }
  }
}

void TaskManager::quiesce() {
  join_and_flush();
  apply_deferred();
}

void TaskManager::shutdown() {
  if (inflight_) {
    // Join but do not flush: at teardown the transports (and possibly the
    // apps' targets) may already be gone.
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return !slot_.active; });
    }
    for (Entry* entry : inflight_entries_) entry->proxy->discard();
    inflight_ = false;
    inflight_entries_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : pool_) {
    if (thread.joinable()) thread.join();
  }
  pool_.clear();
}

void TaskManager::apply_deferred() {
  if (deferred_.empty()) return;
  auto ops = std::move(deferred_);
  deferred_.clear();
  for (auto& op : ops) op();
}

double TaskManager::mean_idle_fraction() const {
  if (cycles_ == 0) return 1.0;
  const double busy =
      stages_.updater.mean() + stages_.event.mean() + stages_.apps.mean() + stages_.flush.mean();
  double period_us = static_cast<double>(sim::kTtiUs);
  if (!config_.real_time && cycles_ > 1 && last_cycle_at_ > first_cycle_at_) {
    period_us = static_cast<double>(last_cycle_at_ - first_cycle_at_) /
                static_cast<double>(cycles_ - 1);
  }
  return std::max(0.0, 1.0 - busy / period_us);
}

std::uint64_t TaskManager::app_overruns() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& entry : apps_) total += entry->overruns;
  return total;
}

std::vector<TaskManager::AppStat> TaskManager::app_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AppStat> stats;
  stats.reserve(apps_.size());
  for (const auto& entry : apps_) {
    stats.push_back({std::string(entry->app->name()), entry->wall_us.count(),
                     entry->wall_us.mean(), entry->wall_us.max(), entry->overruns});
  }
  return stats;
}

}  // namespace flexran::ctrl
