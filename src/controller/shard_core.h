// FlexRAN master controller core (paper Sec. 4.3.3): the brain of the
// control plane. Owns the RIB, the RIB Updater (the single writer, fed from
// a pending-message queue), the Task Manager, the Event Notification
// Service, and the application registry, and terminates the FlexRAN
// protocol toward every connected agent. Custom design, deliberately not
// OpenFlow: radio resources don't fit the flow abstraction and real-time
// apps need per-TTI cycles.
//
// Since the two-tier split (docs/sharded_control.md) this class is the
// per-shard core: instantiable N times in one process, each instance owning
// a disjoint agent set, with a thin Coordinator (coordinator.h) assigning
// agents, aggregating snapshots and routing commands. A standalone instance
// (shard index unset) is the classic single master.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "controller/app.h"
#include "controller/arbiter.h"
#include "controller/checkpoint_sink.h"
#include "controller/overload.h"
#include "controller/rib.h"
#include "controller/rib_snapshot.h"
#include "controller/task_manager.h"
#include "net/flow_control.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/checkpoint.h"
#include "proto/accounting.h"
#include "proto/wire.h"
#include "sim/simulator.h"

namespace flexran::ctrl {

/// Unified observability layer (docs/observability.md). Off by default:
/// with `enabled == false` the master neither stamps envelopes, records
/// latency nor registers its collector -- behavior and wire traffic are
/// identical to a build without the layer (the repo's `0/0 = off`
/// convention). Cycle-stage timing is not part of the layer: the Task
/// Manager times its stages either way.
struct ObsConfig {
  bool enabled = false;
  /// External registry to register the core's collector in (nullptr = use
  /// the core's own). The Coordinator points every shard at one shared
  /// registry so a single export surface covers the whole process; the
  /// `shard` label (MasterConfig::shard) keeps identities unique. The
  /// registry must outlive the core.
  obs::MetricsRegistry* registry = nullptr;
};

/// Master crash recovery (docs/fault_tolerance.md "Master restart"). Off
/// by default: with `enabled == false` no incarnation epoch is stamped on
/// the wire, re-syncs are never paced, and no readiness barrier is raised
/// -- behavior and traffic are seed-identical (the `0/0 = off` convention).
/// `restart()` still works without the layer, just without fencing.
struct RecoveryConfig {
  /// Master incarnation epochs + admission pacing + app readiness gating.
  bool enabled = false;
  /// Token-bucket admission gate on concurrent full re-syncs after a
  /// restart: sustained admissions per second (0 = unpaced) and bucket
  /// capacity (how many re-syncs may be admitted back to back).
  double resync_tokens_per_s = 0.0;
  double resync_burst = 4.0;
  /// Retry-after hint piggybacked to agents whose re-sync was deferred by
  /// the gate (Envelope::retry_after_ms): how long they should hold their
  /// hello retries. The master re-syncs them itself when a token frees up.
  double resync_retry_after_ms = 50.0;
  /// Readiness barrier: recovery ends (the snapshot drops `recovering`)
  /// once this fraction of the expected fleet has re-synced...
  double readiness_quorum = 1.0;
  /// ...or after this long, whichever comes first (0 = quorum only; a
  /// permanently dead agent must not hold the barrier forever).
  sim::TimeUs readiness_timeout_us = sim::from_ms(2000.0);
  /// Warm checkpoint: serialize durable master state to `checkpoint_sink`
  /// every `checkpoint_period_us` (0 = never write). A checkpoint found in
  /// the sink at construction or restart() is loaded, cutting recovery to
  /// a delta re-sync (stats + subscriptions, no config fetch).
  sim::TimeUs checkpoint_period_us = 0;
  std::shared_ptr<CheckpointSink> checkpoint_sink;
};

/// Retries before a tracked request (MasterConfig::request_timeout_us) is
/// reported failed via a request_timeout event.
inline constexpr int kRequestMaxRetries = 2;

struct MasterConfig {
  TaskManagerConfig task_manager;
  /// Shard index under a Coordinator (-1 = standalone master). When set,
  /// every series this core exports carries a `shard` label so multiple
  /// cores can share one MetricsRegistry without name collisions.
  int shard = -1;
  /// On hello: automatically fetch eNodeB/UE/LC configuration.
  bool auto_configure = true;
  /// On hello: install this statistics request (nullopt = none).
  std::optional<proto::StatsRequest> default_stats_request;
  /// On hello: subscribe to these events at the agent.
  std::vector<proto::EventType> subscribe_events;
  /// Send an echo request every this many cycles for RTT estimation
  /// (0 = never).
  std::int64_t echo_period_cycles = 1000;
  /// Mark an agent stale when nothing has been heard from it for this long
  /// (0 = never). Stale agents are skipped by well-behaved apps.
  sim::TimeUs agent_timeout_us = 0;
  /// Declare a stale agent fully disconnected (state -> down, pending
  /// updates purged, in-flight requests failed, AGENT_DISCONNECTED emitted)
  /// after this much silence (0 = never). Transport-notified disconnects
  /// take this path immediately.
  sim::TimeUs agent_disconnect_timeout_us = 0;
  /// Track config/stats requests by xid and retry them when no reply
  /// arrives within this timeout (doubles per retry). 0 = fire-and-forget
  /// (the seed behavior).
  sim::TimeUs request_timeout_us = 0;
  /// Overload protection (docs/overload_protection.md): bounded ingest
  /// queue. The layer (watchdog and report-throttle backoff included) is
  /// entirely off (seed behavior) until `overload.ingest` has a budget.
  OverloadConfig overload;
  /// Metrics registry + control-loop tracing + Envelope timestamp echo
  /// (docs/observability.md). Off = seed-identical.
  ObsConfig obs;
  /// Master crash recovery (docs/fault_tolerance.md "Master restart").
  /// Off = seed-identical.
  RecoveryConfig recovery;
};

/// One row of a stats table: a counter's metric identity and where it lives.
/// Each table is the single list of its struct's counters. The metric
/// collectors and the fleet sums walk it; the scenario summary and the
/// invariant monitor read the struct it describes.
template <typename Stats>
struct StatField {
  /// Exported series name; nullptr = summed but not exported (invariant
  /// tripwires and restore-time rejections).
  const char* name;
  std::uint64_t Stats::*field;
};

/// One shard's counters (paper Sec. 4.3.3: the master reports its own RIB
/// Updater and Task Manager statistics; docs/observability.md "What the
/// master registers"). The shard increments the counters it owns in place;
/// ShardCore::stats() copies in the rest from the component that owns them.
struct ShardStats {
  // ---- owned: RIB updater, request table, session lifecycle --------------
  std::uint64_t updates_applied = 0;
  /// Queued/arriving updates dropped because they carried an older session
  /// epoch than the agent's current one.
  std::uint64_t fenced_updates = 0;
  /// Messages whose envelope failed to decode at receive (e.g. corrupted in
  /// flight), plus well-formed envelopes whose body failed to decode at
  /// apply.
  std::uint64_t rx_decode_errors = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_retried = 0;
  /// Requests that exhausted their retries or died with a session.
  std::uint64_t requests_failed = 0;
  // ---- owned: delegated-control containment (docs/delegation_safety.md) --
  /// Policies re-sent (rolled back to last-known-good) after an agent
  /// quarantined a VSF implementation.
  std::uint64_t policy_rollbacks = 0;
  /// Policies an agent reported rejected (two-phase apply failed).
  std::uint64_t policies_rejected = 0;
  // ---- owned: overload protection (docs/overload_protection.md) ----------
  /// Cycles where the updater hit its slot budget with messages queued.
  std::uint64_t updater_saturations = 0;
  /// Stats requests re-sent to renegotiate report periods.
  std::uint64_t throttle_renegotiations = 0;
  // ---- owned: crash recovery (docs/fault_tolerance.md "Master restart") --
  std::uint64_t master_restarts = 0;
  /// Re-syncs deferred by the admission gate / later admitted from the
  /// deferral queue.
  std::uint64_t resyncs_paced = 0;
  std::uint64_t resyncs_admitted = 0;
  /// Commands refused at the wire because their target had not re-synced
  /// with this incarnation yet.
  std::uint64_t commands_held = 0;
  std::uint64_t checkpoints_saved = 0;
  /// Checkpoint saves the sink refused (disk error, injected fault). Each
  /// failure schedules a backoff retry well inside the checkpoint period;
  /// the last good checkpoint is never clobbered (the sink's tmp+rename
  /// fails atomically).
  std::uint64_t checkpoint_write_failures = 0;
  /// Checkpoints refused at restore time (wrong shard stamp or a payload
  /// that fails decoding).
  std::uint64_t checkpoints_rejected = 0;
  /// Last-known-good policies re-pushed as re-syncs completed.
  std::uint64_t policies_repushed = 0;
  /// Invariant tripwires (src/verify/invariants.h). Commands that actually
  /// reached the wire toward an agent that had not re-synced with this
  /// incarnation while the readiness barrier was up: the gate in send_to
  /// makes this impossible by construction, so weakening the gate trips
  /// the monitor instead of silently shipping stale state. Handovers sent
  /// while recovering: apps honor the snapshot readiness guard, so this
  /// stays 0.
  std::uint64_t commands_sent_unresynced = 0;
  std::uint64_t handovers_while_recovering = 0;
  // ---- copied in: ingest queue (ClassedQueue) ---------------------------
  /// High-water marks (bounded by the configured budget).
  std::uint64_t ingest_peak_messages = 0;
  std::uint64_t ingest_peak_bytes = 0;
  /// Unsheddable messages admitted past the budget (should stay 0).
  std::uint64_t ingest_budget_overflows = 0;
  /// Per-class admission accounting, indexed by net::TrafficClass.
  std::array<net::ClassCounters, net::kNumTrafficClasses> ingest{};
  // ---- copied in: overload watchdog, task manager, core tables -----------
  std::uint64_t overload_transitions = 0;
  std::uint64_t cycles_run = 0;
  /// Commands that reached the wire through batch flushes.
  std::uint64_t commands_flushed = 0;
  std::uint64_t app_overruns = 0;
  std::uint64_t updater_overruns = 0;
  /// Requests currently awaiting a reply (xid-keyed table).
  std::uint64_t inflight_requests = 0;
  /// Agents currently parked in the re-sync deferral queue.
  std::uint64_t resyncs_waiting = 0;
  /// Version of the latest published snapshot.
  std::uint64_t snapshot_version = 0;

  /// Ingest totals over every traffic class.
  std::uint64_t ingest_shed() const;
  std::uint64_t ingest_coalesced() const;
  /// Field-wise sum over both tables below (the Coordinator's fleet fold).
  ShardStats& operator+=(const ShardStats& other);
};

inline constexpr StatField<ShardStats> kShardStatFields[] = {
    {"updates_applied", &ShardStats::updates_applied},
    {"fenced_updates", &ShardStats::fenced_updates},
    {"rx_decode_errors", &ShardStats::rx_decode_errors},
    {"requests_completed", &ShardStats::requests_completed},
    {"requests_retried", &ShardStats::requests_retried},
    {"requests_failed", &ShardStats::requests_failed},
    {"policy_rollbacks", &ShardStats::policy_rollbacks},
    {"policies_rejected", &ShardStats::policies_rejected},
    {"updater_saturations", &ShardStats::updater_saturations},
    {"throttle_renegotiations", &ShardStats::throttle_renegotiations},
    {"master_restarts", &ShardStats::master_restarts},
    {"resyncs_paced", &ShardStats::resyncs_paced},
    {"resyncs_admitted", &ShardStats::resyncs_admitted},
    {"commands_held_recovering", &ShardStats::commands_held},
    {"checkpoints_saved", &ShardStats::checkpoints_saved},
    {"checkpoint_write_failures", &ShardStats::checkpoint_write_failures},
    {nullptr, &ShardStats::checkpoints_rejected},
    {"policies_repushed", &ShardStats::policies_repushed},
    {nullptr, &ShardStats::commands_sent_unresynced},
    {nullptr, &ShardStats::handovers_while_recovering},
    {"ingest_peak_messages", &ShardStats::ingest_peak_messages},
    {"ingest_peak_bytes", &ShardStats::ingest_peak_bytes},
    {"ingest_budget_overflows", &ShardStats::ingest_budget_overflows},
    {"overload_transitions", &ShardStats::overload_transitions},
    {"cycles_run", &ShardStats::cycles_run},
    {"commands_flushed", &ShardStats::commands_flushed},
    {"app_overruns", &ShardStats::app_overruns},
    {"updater_overruns", &ShardStats::updater_overruns},
    {"inflight_requests", &ShardStats::inflight_requests},
    {"resyncs_waiting", &ShardStats::resyncs_waiting},
    {"snapshot_version", &ShardStats::snapshot_version},
};

/// ShardStats::ingest, per class; exported with a `class` label.
inline constexpr StatField<net::ClassCounters> kIngestClassFields[] = {
    {"ingest_enqueued", &net::ClassCounters::enqueued},
    {"ingest_shed", &net::ClassCounters::shed},
    {"ingest_shed_bytes", &net::ClassCounters::shed_bytes},
    {"ingest_coalesced", &net::ClassCounters::coalesced},
};

class ShardCore final : public NorthboundApi {
 public:
  ShardCore(sim::Simulator& sim, MasterConfig config);
  /// Stops the worker pool before the application registry is destroyed
  /// (member order would otherwise tear apps down under running workers).
  ~ShardCore() override;

  /// Registers the master-side endpoint of an agent connection. Returns the
  /// agent id (also the RIB root key). `id` pins an explicit agent id --
  /// the Coordinator allocates ids globally so they stay unique across
  /// shards; 0 (the default) keeps the core's own sequential allocation.
  AgentId add_agent(net::Transport& transport, AgentId id = 0);
  void remove_agent(AgentId id);

  /// Runs one task-manager cycle; wire this to the TtiTicker (real-time
  /// mode) or call it at any coarser period (non-RT mode).
  void run_cycle();

  /// Simulates a master process crash + immediate restart in place
  /// (docs/fault_tolerance.md "Master restart"): every piece of volatile
  /// state -- RIB contents, queued and in-flight messages, pending
  /// policies, event queue -- is dropped, exactly what a real restart
  /// loses. The transport registry survives (a restarted master re-accepts
  /// its listening sockets; here the agents' connections stay attached
  /// under the same ids). With recovery enabled the incarnation epoch is
  /// bumped and announced so agents fence stale traffic and re-hello; a
  /// checkpoint in the configured sink is loaded for a warm (delta)
  /// recovery. Note: the incarnation is monotonic in-memory; a real
  /// deployment would derive it from a durable source (the checkpoint
  /// provides that here).
  void restart();

  /// Forces a checkpoint save right now (normally driven by
  /// `recovery.checkpoint_period_us`). Errors if no sink is configured.
  util::Status save_checkpoint();

  // ---- failover / drain (docs/sharded_control.md "Shard failover") -----------
  /// Live durable state of one agent -- the per-agent slice of
  /// build_checkpoint(), read from the live RIB instead of the checkpoint
  /// sink, so a planned drain hands over state newer than the last save.
  proto::CheckpointAgent export_agent(AgentId id) const;
  /// Takes ownership of an orphaned (or drained) agent's connection. With
  /// `durable` the agent's checkpointed state is imported for a warm delta
  /// re-sync; without it the adoption is cold (full config fetch on the
  /// agent's next message or hello). The agent starts down and is walked
  /// through the normal paced re-sync admission; with recovery enabled the
  /// readiness barrier is raised until the adopted set is serviceable.
  void adopt_agent(net::Transport& transport, AgentId id,
                   const proto::CheckpointAgent* durable = nullptr);
  /// Raises the incarnation to at least `floor` (no-op below the current
  /// value, or while recovery is disabled). An adopter must not fence
  /// behind its dead predecessor: agents drop frames carrying a strictly
  /// older incarnation than the last one they saw, so the survivor resumes
  /// at or above the dead shard's epoch.
  void bump_incarnation(std::uint32_t floor);
  /// Chaos/test fault hook: make every subsequent run_cycle() throw
  /// (detection via exception containment in the Coordinator) or return
  /// immediately without advancing (detection via the cycle-stall
  /// watchdog).
  enum class CycleFault { none, throwing, stalled };
  void set_cycle_fault(CycleFault fault) { cycle_fault_ = fault; }
  /// The configured checkpoint sink (nullptr = none). The Coordinator reads
  /// a dead shard's last save through this during failover -- explicitly,
  /// not via restart(), which rejects wrong-shard checkpoints.
  const std::shared_ptr<CheckpointSink>& checkpoint_sink() const {
    return config_.recovery.checkpoint_sink;
  }
  /// Publishes the current RIB state immediately (normally end-of-cycle).
  /// The Coordinator calls this after topology surgery -- remove, adopt,
  /// drain -- so the composite union never shows a moved agent in two
  /// places (or a removed one at all) while the shard idles between
  /// cycles. Coordinator-thread only, like run_cycle().
  void publish_now() { rib_.publish(overload_monitor_.state(), recovering_); }
  /// Joins the in-flight application slot (if any) and flushes its command
  /// batches. With a pipelined task manager (workers > 0) a cycle's
  /// commands reach the wire one cycle later; call this before asserting
  /// on sent traffic or shutting transports down.
  void quiesce() { task_manager_.quiesce(); }

  // ---- application management ----------------------------------------------
  /// Registers an application; the master keeps ownership.
  App* add_app(std::unique_ptr<App> app);
  /// Observer the Coordinator installs to mirror this shard's events into
  /// the global (composite-view) application slot. Called on the
  /// coordinator thread during event dispatch, after the shard's own apps
  /// saw the event. One tap only; empty = off.
  void set_event_tap(std::function<void(const Event&)> tap) { event_tap_ = std::move(tap); }
  util::Status pause_app(std::string_view name) { return task_manager_.set_paused(name, true); }
  util::Status resume_app(std::string_view name) { return task_manager_.set_paused(name, false); }

  // ---- NorthboundApi ---------------------------------------------------------
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override { return rib_.current(); }
  sim::TimeUs now() const override { return sim_.now(); }
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

  // ---- introspection ----------------------------------------------------------
  /// The live RIB. Coordinator-thread / test use only -- applications read
  /// through rib_snapshot() and never see this (single-writer rule).
  const Rib& rib() const { return rib_; }
  const TaskManager& task_manager() const { return task_manager_; }
  const ConflictArbiter& arbiter() const { return arbiter_; }
  /// Every counter of this shard (kShardStatFields lists them). Coordinator
  /// thread only, like run_cycle().
  ShardStats stats() const;
  std::uint64_t snapshot_version() const { return rib_.current()->version(); }
  /// Wall time of each cycle's snapshot publish (Fig. 8 companion series;
  /// the Task Manager's publish stage).
  const util::RunningStats& snapshot_publish_us() const { return task_manager_.stages().publish; }
  /// Master -> agent signaling (Fig. 7b).
  const proto::SignalingAccountant& tx_accounting(AgentId agent) const;
  /// Agent -> master signaling as received (Fig. 7a).
  const proto::SignalingAccountant& rx_accounting(AgentId agent) const;
  /// Ingest-queue occupancy (the InvariantMonitor checks it against
  /// ingest_budget() every coordinator cycle).
  std::size_t pending_updates() const { return pending_.size(); }
  std::size_t pending_bytes() const { return pending_.bytes(); }
  std::size_t rib_bytes() const { return rib_.approx_bytes(); }
  std::uint64_t rx_decode_errors() const { return stats_.rx_decode_errors; }

  // ---- crash recovery (docs/fault_tolerance.md "Master restart") -------------
  /// Current master incarnation (0 while recovery is disabled).
  std::uint32_t incarnation() const { return incarnation_; }
  /// True while the readiness barrier is up: the RIB is still being
  /// rebuilt from agent re-syncs after a restart.
  bool recovering() const { return recovering_; }
  /// A checkpoint was loaded at construction or the last restart().
  bool checkpoint_loaded() const { return checkpoint_loaded_; }
  /// Agents that completed their re-sync since the last restart.
  std::size_t agents_resynced() const { return recovery_resynced_.size(); }
  /// Wall-clock (simulated) duration of the last completed recovery;
  /// 0 = none completed yet (or still recovering).
  sim::TimeUs last_recovery_duration() const {
    return recovery_ready_at_ == 0 ? 0 : recovery_ready_at_ - recovery_started_at_;
  }

  // ---- delegated-control containment (docs/delegation_safety.md) ------------
  /// Newest applied policy for the agent not implicated in a quarantine
  /// ("" = none recorded).
  std::string last_known_good_policy(AgentId agent) const;

  // ---- overload protection (docs/overload_protection.md) ---------------------
  OverloadState overload_state() const { return overload_monitor_.state(); }
  /// Current report-period multiplier (1 = no throttling).
  std::uint32_t throttle_multiplier() const { return throttle_multiplier_; }
  /// The configured ingest budget.
  const net::QueueBudget& ingest_budget() const { return config_.overload.ingest; }

  // ---- observability (docs/observability.md) ---------------------------------
  /// The unified metrics registry: the core's own, or the shared external
  /// one from ObsConfig::registry. The core's collector is registered only
  /// while `obs.enabled`; external components (scenario layer, benches)
  /// may add theirs at any time.
  obs::MetricsRegistry& metrics() { return *registry_; }
  /// Writes the process-wide series (decoder anomalies). Exactly one
  /// collector calls it: a standalone core's, or the Coordinator's.
  static void collect_process_wide(obs::Sink& out);
  /// End-to-end control latency (send -> agent -> echo -> RIB apply) for
  /// one agent; nullptr when observability is off or the agent is unknown.
  const obs::Histogram* control_latency(AgentId agent) const;

 private:
  struct AgentLink {
    net::Transport* transport = nullptr;  // not owned
    proto::SignalingAccountant tx;
    proto::SignalingAccountant rx;
    /// End-to-end control-latency histogram; non-null only while
    /// observability is enabled.
    std::unique_ptr<obs::Histogram> latency;
  };

  struct PendingUpdate {
    AgentId agent = 0;
    std::uint32_t epoch = 0;
    proto::Envelope envelope;
  };

  /// A tracked request awaiting its reply: retried with doubling timeout,
  /// failed (and surfaced as a request_timeout event) when retries run out
  /// or the session it belongs to ends.
  struct PendingRequest {
    AgentId agent = 0;
    proto::MessageType type = proto::MessageType::hello;
    std::uint32_t xid = 0;
    std::uint32_t epoch = 0;
    /// For stats requests: completion is matched on the reply's request_id
    /// (stats replies do not echo the xid).
    std::uint32_t request_id = 0;
    /// Signaling category and traffic class, captured from the real message
    /// body at enqueue time. The retry path must reuse these -- recomputing
    /// the category from the stored wire with an empty body misbuckets any
    /// body-dependent type, and a classless resend would bypass class-aware
    /// budget accounting.
    proto::MessageCategory category = proto::MessageCategory::agent_management;
    net::TrafficClass cls = net::TrafficClass::config;
    std::vector<std::uint8_t> wire;
    sim::TimeUs deadline = 0;
    sim::TimeUs timeout = 0;
    int attempts = 0;
  };

  /// Per-agent policy bookkeeping for rollback: policies sent but not yet
  /// acknowledged (keyed by envelope xid, which the agent echoes in its
  /// policy_applied / policy_rejected verdict) and a bounded history of
  /// applied policies, newest first.
  struct PolicyState {
    std::map<std::uint32_t, std::string> pending;
    std::deque<std::string> history;
  };
  static constexpr std::size_t kPolicyHistoryCap = 8;

  template <typename M>
  util::Status send_to(AgentId agent, const M& message, bool track = false);

  /// The core's collector: the stats tables, the gauges and stage means,
  /// per-app wall stats, and per-agent signaling and control latency for
  /// the agents this core holds right now.
  void collect(obs::Sink& out) const;

  /// RIB updater slot body: drains pending updates (bounded by budget in
  /// real-time mode via an update-count proxy).
  void drain_pending(std::int64_t budget_us);
  /// Overload watchdog step: runs after the drain, feeds the monitor one
  /// sample and reacts to state transitions (events, throttling).
  void overload_step();
  /// Moves the report-throttle multiplier and renegotiates every captured
  /// periodic stats request at the new period.
  void update_throttle(std::uint32_t multiplier);
  void renegotiate_reports();
  void apply_update(const PendingUpdate& update);
  void dispatch_events();
  void on_agent_hello(AgentId id, const proto::Hello& hello);

  // ---- session lifecycle ----------------------------------------------------
  /// Re-sends the configuration fetch, default stats request and event
  /// subscriptions (the hello handshake minus identity).
  void resync_agent(AgentId id);
  /// Transitions the agent to down: purges its queued updates, fails its
  /// in-flight requests and emits AGENT_DISCONNECTED.
  void mark_agent_down(AgentId id, const std::string& reason);
  /// One pass over the links: an agent silent past `agent_timeout_us` goes
  /// stale, past `agent_disconnect_timeout_us` down. No-op when both are 0.
  void sweep_liveness();
  /// Starts a new session at `epoch`: fences the old session's queued
  /// updates and in-flight requests.
  void begin_agent_session(AgentId id, std::uint32_t epoch);
  void purge_pending(AgentId id, std::uint32_t below_epoch);
  void fail_agent_requests(AgentId id, const char* reason);
  void complete_request(AgentId agent, std::uint32_t xid);
  void complete_stats_request(AgentId agent, std::uint32_t request_id);
  void sweep_requests();
  void emit_lifecycle_event(AgentId id, proto::EventType type, std::uint32_t xid = 0);
  /// Resolves a pending policy against the agent's verdict (applied ->
  /// history, rejected -> dropped).
  void note_policy_verdict(AgentId id, const proto::EventNotification& event);
  /// On vsf_quarantined: purges history entries naming the quarantined
  /// implementation and re-sends the newest survivor (last-known-good).
  void rollback_policy(AgentId id, const proto::EventNotification& event);

  // ---- crash recovery -------------------------------------------------------
  /// Admission-gated entry to resync_agent: consumes a token or parks the
  /// agent in the deferral queue with a retry-after hint. With pacing off
  /// (no token rate) this is resync_agent directly.
  void request_resync(AgentId id);
  /// Refills the token bucket from elapsed simulated time and admits
  /// deferred agents while tokens last.
  void admit_resyncs();
  void refill_resync_tokens();
  /// Resync-completion hook (resyncing -> up): records the time-to-resync,
  /// re-pushes the last-known-good policy during recovery and checks the
  /// readiness quorum.
  void mark_resynced(AgentId id);
  void finish_recovery(const char* how);
  /// Loads a checkpoint from the sink into the RIB (identities, configs,
  /// report registrations, policy histories); no-op without a sink or
  /// stored checkpoint.
  void load_checkpoint();
  void maybe_checkpoint();
  proto::MasterCheckpoint build_checkpoint() const;
  /// Installs one agent's checkpointed durable state into the RIB and the
  /// recovery bookkeeping (shared by load_checkpoint and adopt_agent).
  void import_durable(const proto::CheckpointAgent& saved);

  sim::Simulator& sim_;
  MasterConfig config_;
  Rib rib_;
  /// Stats replies decode into this one message, so after the first reply
  /// of a given shape the decode reuses its vectors instead of allocating.
  proto::StatsReply stats_reply_;
  /// The envelope a received frame decodes into before pending_.swap_in
  /// moves it into the queue, and the update pending_.swap_out hands to
  /// apply_update. Their body buffers circulate with the queue's recycled
  /// entries, so a message of a size seen before allocates nothing.
  PendingUpdate rx_slot_;
  PendingUpdate apply_slot_;
  TaskManager task_manager_;
  ConflictArbiter arbiter_;

  std::map<AgentId, AgentLink> links_;
  /// Ingest queue feeding the RIB Updater. With an overload budget it
  /// sheds lowest-class-first and coalesces superseded periodic replies;
  /// without one it is a plain FIFO (seed behavior).
  net::ClassedQueue<PendingUpdate> pending_;
  std::deque<Event> event_queue_;
  /// Coordinator's event mirror (set_event_tap); invoked on the
  /// coordinator thread after local dispatch of each event.
  std::function<void(const Event&)> event_tap_;
  std::vector<std::unique_ptr<App>> apps_;
  std::map<std::uint32_t, PendingRequest> inflight_;
  std::map<AgentId, PolicyState> policies_;
  /// Periodic stats requests as originally issued, keyed by
  /// (agent, request_id) -- what throttling stretches and recovery
  /// restores.
  std::map<std::pair<AgentId, std::uint32_t>, proto::StatsRequest> original_reports_;
  OverloadMonitor overload_monitor_;

  AgentId next_agent_id_ = 1;
  std::uint32_t next_xid_ = 1;
  /// Reused send-path scratch encoder (docs/wire_fastpath.md): all sends run
  /// on the owning coordinator thread, so one arena per shard suffices and
  /// steady-state sends stop allocating.
  proto::WireEncoder send_enc_;
  /// Counters this shard owns, incremented in place (stats() adds the rest).
  ShardStats stats_;
  std::uint64_t last_shed_total_ = 0;
  CycleFault cycle_fault_ = CycleFault::none;
  bool updater_saturated_cycle_ = false;
  std::uint32_t throttle_multiplier_ = 1;
  /// Cycles of continued shedding while critical, toward the next
  /// multiplier doubling.
  std::size_t critical_shedding_cycles_ = 0;
  proto::SignalingAccountant empty_accounting_;

  // ---- crash recovery --------------------------------------------------------
  /// Incarnation epoch stamped on every send while recovery is enabled
  /// (starts at 1; restart() and checkpoint loads only move it up).
  std::uint32_t incarnation_ = 0;
  bool recovering_ = false;
  sim::TimeUs recovery_started_at_ = 0;
  sim::TimeUs recovery_ready_at_ = 0;
  /// The fleet the readiness barrier waits for: live links at restart plus
  /// agents restored from the checkpoint.
  std::set<AgentId> recovery_expected_;
  std::set<AgentId> recovery_resynced_;
  /// Agents whose configuration came from the checkpoint: their next
  /// re-sync is a delta (stats + subscriptions only).
  std::set<AgentId> warm_restored_;
  /// Admission gate: deferral queue (FIFO) + membership set for dedup and
  /// O(log n) retry-after stamping in send_to.
  std::deque<AgentId> resync_queue_;
  std::set<AgentId> resync_waiting_;
  double resync_tokens_ = 0.0;
  sim::TimeUs last_token_refill_ = 0;
  /// When each in-progress re-sync started (feeds the time-to-resync
  /// histogram and the scenario summary).
  std::map<AgentId, sim::TimeUs> resync_started_at_;
  sim::TimeUs last_checkpoint_at_ = 0;
  /// Non-zero after a failed checkpoint save: the next attempt happens
  /// after this backoff instead of a full period. Doubles per consecutive
  /// failure, capped at the checkpoint period; reset on success.
  sim::TimeUs checkpoint_backoff_us_ = 0;
  bool checkpoint_loaded_ = false;
  /// Time-to-resync histogram (1ms .. ~16s, doubling -- re-syncs span wire
  /// RTTs to paced backlogs).
  obs::Histogram resync_duration_{obs::exponential_bounds(1000.0, 2.0, 14)};

  // ---- observability ---------------------------------------------------------
  /// The core's own registry; `registry_` points here unless ObsConfig
  /// supplied a shared external one.
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry* registry_ = &metrics_;
  /// Last member: unregisters collect() before anything it reads is torn
  /// down.
  obs::MetricsRegistry::Registration collector_;
};

}  // namespace flexran::ctrl
