// The three benchmark workloads. Each is a World: one simulator, one TTI
// ticker and one Coordinator, plus the agents that feed it, all in one
// process and on one thread (TaskManagerConfig::workers = 0). Every link
// end, data-plane listener and application is wrapped in the decorators of
// wrappers.h, so the layers can be timed from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "controller/coordinator.h"
#include "sim/simulator.h"
#include "wrappers.h"

namespace perfbench {

/// Operations of the control loop: stats reports the agents sent and DL
/// decisions the master flushed. A report succeeds when the RIB applies
/// it; a decision succeeds when the agent applies it at its target
/// subframe. Everything else (lost, shed, fenced, undecodable, rejected,
/// late) is a failure.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Per-cycle numbers read from the program's own public accessors while the
/// tracer is on: the updater slot and snapshot publish timers (wall clock,
/// one sample per shard and cycle), updates applied and allocations made
/// per Coordinator::run_cycle.
struct CycleTrace {
  std::vector<double> updater_us;
  std::vector<double> publish_us;
  std::vector<std::uint32_t> updates;
  std::vector<std::uint32_t> allocs;
};

struct WorkloadPlan {
  /// TTIs run after set-up before anything is measured (fills the RIB,
  /// HARQ and RLC queues and the allocator's free lists).
  int warmup_ttis = 0;
  /// TTIs the traced run records spans for (as many again run untraced,
  /// interleaved, for the overhead ratio).
  int trace_ttis = 0;
  /// Times the world is built per run; set-up time is their median.
  int setup_repeats = 0;
  /// Simulated metrics scrape period (0 = no scrape).
  int scrape_period_ttis = 0;
};

class World {
 public:
  explicit World(flexran::ctrl::CoordinatorConfig config);
  virtual ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Advances the whole system by one simulated TTI.
  void step();
  std::int64_t tti() const { return sim_.current_tti(); }
  std::uint64_t events() const { return sim_.executed_events(); }

  /// Every agent is up with all its UEs in the RIB.
  virtual bool ready() const;
  /// Called once when set-up is over.
  virtual void on_ready() {}
  /// Stops issuing new operations so that the ones in flight can settle.
  virtual void begin_drain() = 0;
  virtual Ops ops() const = 0;
  /// Appends a line per failed correctness check.
  virtual void check(std::vector<std::string>& failures) const;
  /// Renders the metrics registry (empty when the workload scrapes nothing).
  std::string scrape() const;

  flexran::ctrl::Coordinator& coordinator() { return coordinator_; }
  const flexran::ctrl::Coordinator& coordinator() const { return coordinator_; }
  /// Commands all wrapped apps issued so far.
  std::uint64_t commands() const;
  /// Missed-deadline decisions summed over real agents (0 for replay fleets).
  virtual std::uint64_t missed_deadline() const { return 0; }

  /// When set, each Coordinator::run_cycle's CPU time is appended here.
  bool record_cycles = false;
  std::vector<std::uint32_t> cycle_ns;
  /// Filled while the tracer is on.
  CycleTrace cycle_trace;

 protected:
  void add_agent_id(flexran::ctrl::AgentId id) { agent_ids_.push_back(id); }
  void add_shard_app(std::size_t shard, std::unique_ptr<TimedApp> app) {
    apps_.push_back(app.get());
    coordinator_.shard(shard).add_app(std::move(app));
  }
  /// Stats reports of `sent` that the RIB did not apply: lost on the way,
  /// undecodable, shed at ingest or fenced.
  std::uint64_t reports_failed(std::uint64_t sent) const;

  flexran::sim::Simulator sim_;
  flexran::sim::TtiTicker ticker_{sim_};
  flexran::ctrl::Coordinator coordinator_;
  /// Every wrapped app (owned by its shard or the Coordinator).
  std::vector<TimedApp*> apps_;

 private:
  void timed_cycle();

  std::vector<flexran::ctrl::AgentId> agent_ids_;
  std::vector<double> last_updater_total_;
  std::vector<double> last_publish_total_;
};

WorkloadPlan plan_for(const std::string& workload);
/// nullptr for an unknown workload name.
std::unique_ptr<World> make_world(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
