// Two-tier control plane, upper tier (docs/sharded_control.md): a thin
// Coordinator over N ShardCore instances in one process. Each shard is a
// complete master -- transport links, RIB + single-writer updater, task
// manager, overload and recovery machinery -- over a disjoint agent set;
// the Coordinator only (a) assigns agents to shards (stable hash of the
// agent's stable key, with explicit override), (b) aggregates the shards'
// RibSnapshots into a versioned global composite view for cross-shard
// applications, and (c) routes northbound commands and events to the
// owning shard. It holds no radio state of its own, so it never becomes
// the serialization point the sharding exists to remove.
//
// Mirrors the O-RAN shape (PAPERS.md: Polese et al.): shards are near-RT
// controllers owning their E2 nodes per-TTI; the Coordinator is the
// non-real-time tier above them hosting network-wide apps.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "controller/shard_core.h"

namespace flexran::ctrl {

struct CoordinatorConfig {
  /// Number of ShardCore instances (>= 1; 0 is clamped to 1).
  std::size_t shards = 1;
  /// Per-shard configuration template. The Coordinator stamps each copy
  /// with its shard index (metric labels) and, with more than one shard
  /// and obs enabled, points every copy at the shared registry.
  MasterConfig shard;
  /// Per-shard checkpoint sink factory (nullptr = every shard keeps the
  /// template's `recovery.checkpoint_sink`, which N > 1 shards would
  /// clobber -- use FileCheckpointSink::shard_path or one sink per shard).
  std::function<std::shared_ptr<CheckpointSink>(std::size_t shard)> checkpoint_sink_factory;
  /// Dead-shard watchdog: a shard that completes no task-manager cycle for
  /// this many consecutive coordinator cycles, while it still owns agents,
  /// is declared failed and its fleet re-homed (0 = watchdog off). A shard
  /// that throws out of run_cycle() is failed immediately regardless.
  std::int64_t shard_stall_cycles = 0;
};

/// Failover and drain outcomes (docs/sharded_control.md "Shard failover"),
/// listed once in kFailoverStatFields. The Coordinator increments them in
/// place; failover_stats() copies in `failover_pending`.
struct FailoverStats {
  std::uint64_t shards_failed = 0;
  std::uint64_t agents_adopted = 0;
  /// Adoptions seeded from the dead shard's checkpoint (delta re-sync)
  /// versus from nothing (full config fetch).
  std::uint64_t warm_adoptions = 0;
  std::uint64_t cold_adoptions = 0;
  std::uint64_t agents_drained = 0;
  /// Orphans that could not be re-homed (no surviving shard).
  std::uint64_t agents_orphaned = 0;
  /// Adopted agents still waiting to complete their re-sync.
  std::uint64_t failover_pending = 0;
  /// Simulated time from first failure suspicion (stall onset, kill) to
  /// the last orphan re-homed in the most recent failover.
  std::uint64_t orphan_window_us = 0;
  /// Simulated time from failover start to every adopted agent back `up`;
  /// 0 = none completed yet (or adoption still in progress).
  std::uint64_t failover_duration_us = 0;
};

inline constexpr StatField<FailoverStats> kFailoverStatFields[] = {
    {"coordinator_shards_failed", &FailoverStats::shards_failed},
    {"coordinator_agents_adopted", &FailoverStats::agents_adopted},
    {"coordinator_warm_adoptions", &FailoverStats::warm_adoptions},
    {"coordinator_cold_adoptions", &FailoverStats::cold_adoptions},
    {"coordinator_agents_drained", &FailoverStats::agents_drained},
    {"coordinator_agents_orphaned", &FailoverStats::agents_orphaned},
    {"coordinator_failover_pending", &FailoverStats::failover_pending},
    {"coordinator_orphan_window_us", &FailoverStats::orphan_window_us},
    {"coordinator_failover_duration_us", &FailoverStats::failover_duration_us},
};

/// The upper tier. Implements NorthboundApi so network-wide (composite
/// view) applications are plain `ctrl::App`s: they read the union snapshot
/// and their commands are routed to the owning shard.
///
/// Threading: everything here runs on the thread driving run_cycle() (the
/// "coordinator thread" of every shard's task manager). Global apps run
/// inline after the shards' cycles, so their sends hit shard transports
/// from that same thread; per-shard apps keep the worker-pool batching
/// contract of their own core, untouched.
class Coordinator final : public NorthboundApi {
 public:
  Coordinator(sim::Simulator& sim, CoordinatorConfig config);

  /// Stable hash placement: which shard owns `stable_key` among
  /// `shard_count` shards. Exposed so tests and operators can predict
  /// placement. FNV-1a over the key bytes -- stable across runs and
  /// processes, uniform enough for eNodeB identifiers.
  static std::size_t assign_shard(std::uint64_t stable_key, std::size_t shard_count);

  /// Registers an agent connection. `stable_key` identifies the eNodeB
  /// durably (e.g. its enb_id) and drives hash placement; `shard_override`
  /// pins the agent to an explicit shard instead (operator override, e.g.
  /// to co-locate an interference cluster). Returns the globally unique
  /// agent id, valid across every shard and the composite snapshot.
  AgentId add_agent(net::Transport& transport, std::uint64_t stable_key = 0,
                    std::optional<std::size_t> shard_override = std::nullopt);
  void remove_agent(AgentId id);

  /// Runs one cycle on every shard, then the global application slot:
  /// shard events mirrored since the last cycle are dispatched to the
  /// global apps, then each global app's on_cycle runs against the
  /// composite snapshot.
  void run_cycle();

  /// Joins every shard's in-flight application slot (see ShardCore::quiesce).
  void quiesce();

  /// Registers a network-wide application on the composite view. The shard
  /// event taps are installed lazily on first registration -- with no
  /// global apps the Coordinator mirrors nothing and adds zero work.
  App* add_app(std::unique_ptr<App> app);

  // ---- shard failover / drain (docs/sharded_control.md "Shard failover") ----
  /// Lifecycle of a shard under the Coordinator. `failed` and `drained`
  /// shards no longer cycle, adopt, or contribute to the composite view.
  enum class ShardHealth { alive, draining, drained, failed };
  ShardHealth shard_health(std::size_t index) const { return shard_states_[index].health; }

  /// Arms (or disarms) the cycle-stall watchdog after construction; the
  /// scenario layer exposes this as the `shard_stall_cycles` knob.
  void set_shard_stall_cycles(std::int64_t cycles) { config_.shard_stall_cycles = cycles; }

  /// Declares a shard dead right now (operator action / fault hook) and
  /// fails its whole fleet over to the survivors. Returns the number of
  /// orphans re-homed. The same path runs automatically when a shard
  /// throws out of run_cycle() or trips the cycle-stall watchdog.
  std::size_t kill_shard(std::size_t index);

  /// Planned migration / scale-in: quiesces the shard's in-flight app slot
  /// and moves its agents one per coordinator cycle to the survivors, each
  /// with a live (warm) export of its durable state. The shard ends
  /// `drained`. Errors if the shard is not alive, no survivor exists, or
  /// another drain is already in progress.
  util::Status drain_shard(std::size_t index);

  /// Failover and drain outcomes so far (kFailoverStatFields lists them).
  FailoverStats failover_stats() const;

  // ---- topology --------------------------------------------------------------
  std::size_t shard_count() const { return shards_.size(); }
  ShardCore& shard(std::size_t index) { return *shards_[index]; }
  const ShardCore& shard(std::size_t index) const { return *shards_[index]; }
  /// Owning shard index for an agent id (nullopt = unknown agent).
  std::optional<std::size_t> shard_of(AgentId id) const;
  std::size_t agent_count() const { return assignment_.size(); }
  /// Every registered agent with its owning shard index, in id order. The
  /// InvariantMonitor cross-checks this against the shards' RIBs every
  /// cycle (single-ownership invariant).
  std::vector<std::pair<AgentId, std::size_t>> assignments() const;

  // ---- runtime verification hooks (src/verify/invariants.h) ------------------
  /// Hook invoked at the very end of every run_cycle() -- after drain
  /// steps, failover polling and the global app slot, including cycles
  /// with no global apps registered. One hook; empty = off. The
  /// InvariantMonitor installs itself here.
  void set_post_cycle_hook(std::function<void(std::int64_t cycle)> hook) {
    post_cycle_hook_ = std::move(hook);
  }
  /// Chaos/self-check defect (the coordinator sibling of
  /// ShardCore::set_cycle_fault): while on, rib_snapshot() returns the
  /// cached composite without checking shard versions -- the
  /// composite-cache invalidation bug deliberately re-introduced so the
  /// fuzzer and tests can prove the InvariantMonitor catches it
  /// (docs/chaos_fuzzing.md "Self-check defects").
  void set_fault_stale_composite(bool on) { fault_stale_composite_ = on; }

  // ---- NorthboundApi (routed to the owning shard) ----------------------------
  /// The composite view: union of the per-shard snapshots, rebuilt only
  /// when some shard published a new version (otherwise the cached
  /// composite is returned unchanged, so an idle fleet costs nothing).
  /// Version is the sum of shard versions; `recovering` is true while any
  /// shard recovers; overload is the worst shard state.
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override;
  sim::TimeUs now() const override;
  std::int64_t agent_subframe(AgentId agent) const override;
  util::Status send_dl_mac_config(AgentId agent, const proto::DlMacConfig& config) override;
  util::Status send_ul_mac_config(AgentId agent, const proto::UlMacConfig& config) override;
  util::Status send_handover(AgentId agent, const proto::HandoverCommand& command) override;
  util::Status send_abs_config(AgentId agent, const proto::AbsConfig& config) override;
  util::Status send_carrier_restriction(AgentId agent,
                                        const proto::CarrierRestriction& config) override;
  util::Status send_drx_config(AgentId agent, const proto::DrxConfig& config) override;
  util::Status send_scell_command(AgentId agent, const proto::ScellCommand& command) override;
  util::Status request_stats(AgentId agent, const proto::StatsRequest& request) override;
  util::Status subscribe_events(AgentId agent, std::vector<proto::EventType> events,
                                bool enable) override;
  util::Status push_vsf(AgentId agent, const std::string& module, const std::string& vsf,
                        const std::string& implementation) override;
  util::Status send_policy(AgentId agent, const std::string& yaml) override;

  // ---- routed / aggregated introspection -------------------------------------
  /// Per-agent accessors route to the owning shard (empty/null for unknown
  /// agents); fleet counters sum over shards. The scenario layer reads the
  /// whole control plane through these whether it runs 1 shard or 16.
  const AgentNode* find_agent(AgentId id) const;
  const proto::SignalingAccountant& tx_accounting(AgentId agent) const;
  const proto::SignalingAccountant& rx_accounting(AgentId agent) const;
  const obs::Histogram* control_latency(AgentId agent) const;
  std::int64_t cycles_run() const { return cycles_; }
  /// Every shard's ShardStats summed (kShardStatFields drives the fold).
  ShardStats stats() const;
  std::uint64_t updates_applied() const { return stats().updates_applied; }
  std::uint64_t fenced_updates() const { return stats().fenced_updates; }
  std::uint64_t ingest_shed() const { return stats().ingest_shed(); }
  /// Summed high-water marks: the process-wide bounded-memory footprint is
  /// the sum of the per-shard budgets.
  std::size_t pending_peak_messages() const { return stats().ingest_peak_messages; }
  OverloadState overload_state() const;
  bool any_recovering() const;
  /// Longest last-recovery duration across shards.
  sim::TimeUs last_recovery_duration() const;
  /// Composite rebuilds (cache misses in rib_snapshot()).
  std::uint64_t composites_built() const { return composites_built_; }

  // ---- observability ----------------------------------------------------------
  /// The process-wide registry: the shared one (shards > 1) or shard 0's
  /// own. One export surface regardless of the shard count.
  obs::MetricsRegistry& metrics();
  const obs::MetricsRegistry& metrics() const;

 private:
  /// Everything the Coordinator must remember per agent to re-home it: the
  /// owning shard, the durable placement key (drives the rendezvous
  /// re-hash) and the master-side transport (re-bound to the adopter).
  struct AgentRecord {
    std::size_t shard = 0;
    std::uint64_t stable_key = 0;
    net::Transport* transport = nullptr;  // not owned
  };
  /// Per-shard health bookkeeping for the watchdog.
  struct ShardState {
    ShardHealth health = ShardHealth::alive;
    /// Task-manager cycle count at the last coordinator cycle.
    std::int64_t last_cycles = 0;
    /// Consecutive coordinator cycles without task-manager progress.
    std::int64_t stalled_for = 0;
    /// When failure was first suspected (stall onset / kill); feeds the
    /// orphan-window metric. 0 = healthy.
    sim::TimeUs suspect_since = 0;
  };

  ShardCore* owner(AgentId id);
  const ShardCore* owner(AgentId id) const;
  void install_event_taps();
  bool shard_active(std::size_t index) const {
    return shard_states_[index].health == ShardHealth::alive ||
           shard_states_[index].health == ShardHealth::draining;
  }
  /// Rendezvous (highest-random-weight) hash over the *alive* shards,
  /// excluding `exclude`: every orphan independently picks the surviving
  /// shard with the highest keyed score, so a failed shard's fleet spreads
  /// across the survivors without reshuffling anyone else. Returns
  /// kNoShard when no candidate survives.
  std::size_t rehome_target(std::uint64_t stable_key, std::size_t exclude) const;
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
  /// Declares the shard failed and re-homes its whole fleet (warm where
  /// the dead shard's checkpoint covers the agent, cold otherwise).
  void fail_shard(std::size_t index, const char* reason);
  /// Moves one agent and updates the record + composite cache atomically
  /// (both are rewritten before control returns to any caller).
  void rehome_agent(AgentId id, std::size_t target, const proto::CheckpointAgent* durable,
                    std::uint32_t floor_incarnation);
  /// One paced drain step: moves the next queued agent off the draining
  /// shard with a live durable export.
  void step_drain();
  /// Tracks adopted agents until their re-sync completes (failover
  /// duration metric).
  void poll_failover();
  /// Writes the failover table and the process-wide series (shards > 1
  /// with obs on; a single shard's own collector covers the latter).
  void collect(obs::Sink& out) const;

  sim::Simulator& sim_;
  CoordinatorConfig config_;
  /// Shared registry for shards > 1 (ObsConfig::registry); unused with a
  /// single shard, which keeps its own registry exactly like a standalone
  /// master.
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<ShardCore>> shards_;
  std::vector<ShardState> shard_states_;
  /// Global agent id -> owning shard + re-homing state.
  std::map<AgentId, AgentRecord> assignment_;
  AgentId next_agent_id_ = 1;
  std::int64_t cycles_ = 0;

  // ---- failover / drain state -------------------------------------------------
  FailoverStats failover_;
  sim::TimeUs failover_started_at_ = 0;
  /// Adopted agents whose re-sync has not completed yet.
  std::set<AgentId> failover_pending_;
  /// Planned migration: agents still queued to leave the draining shard
  /// (one drain at a time; empty = no drain in progress).
  std::deque<AgentId> drain_queue_;
  std::size_t draining_shard_ = kNoShard;

  // ---- global application slot ----------------------------------------------
  std::vector<std::unique_ptr<App>> apps_;
  /// Shard events mirrored by the taps, in arrival order, dispatched at
  /// the head of the next global slot.
  std::deque<Event> pending_events_;
  bool taps_installed_ = false;
  std::function<void(std::int64_t)> post_cycle_hook_;
  bool fault_stale_composite_ = false;

  // ---- composite snapshot cache ----------------------------------------------
  /// Rebuilt lazily when a shard's version moved; `const` because
  /// rib_snapshot() is (coordinator thread only, like ShardCore::rib()).
  mutable std::shared_ptr<const RibSnapshot> composite_;
  /// The composite the last rebuild replaced, released by run_cycle().
  mutable std::shared_ptr<const RibSnapshot> retired_composite_;
  mutable std::vector<std::uint64_t> composed_versions_;
  mutable std::uint64_t composites_built_ = 0;

  proto::SignalingAccountant empty_accounting_;
  /// Last member: unregisters collect() before anything it reads is torn
  /// down.
  obs::MetricsRegistry::Registration collector_;
};

const char* to_string(Coordinator::ShardHealth health);

}  // namespace flexran::ctrl
