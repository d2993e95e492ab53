// Declarative scenario descriptions: a YAML document specifying the
// master, eNodeBs, UEs, traffic and applications, parsed and executed
// against the testbed. This is the surface the `flexran_sim` CLI exposes;
// it reuses the same YAML-lite dialect as policy reconfiguration messages.
//
// Example:
//   duration_s: 5
//   stats_period_ttis: 1
//   remote_scheduler: false
//   enbs:
//     - enb_id: 1
//       name: macro
//       dl_scheduler: local_rr
//       control_delay_ms: 0
//   ues:
//     - enb: 1
//       cqi: 15
//       traffic: full_buffer     # full_buffer | cbr | none
//       rate_mbps: 5             # cbr only
#pragma once

#include <string>
#include <vector>

#include "scenario/fault_injector.h"
#include "scenario/testbed.h"

namespace flexran::scenario {

struct ScenarioEnbSpec {
  lte::EnbId enb_id = 1;
  std::string name = "enb";
  /// Pin this eNodeB's agent to an explicit shard (docs/sharded_control.md);
  /// -1 = stable-hash placement. Only meaningful with `shards` > 1.
  long long shard = -1;
  std::string dl_scheduler = "local_rr";
  std::string ul_scheduler = "local_rr";
  double control_delay_ms = 0.0;
  /// Agent autonomy under faults: fall back to a local DL scheduler when
  /// the master has been silent this many TTIs (0 = off).
  long long remote_fallback_ttis = 0;
  std::string fallback_scheduler = "local_rr";
  // ---- overload protection (docs/overload_protection.md) --------------------
  /// Agent -> master control-link serialization rate, Mb/s (0 = infinite).
  /// A finite rate makes report storms queue behind the serializer, which
  /// is what the agent-side send budget sheds against.
  double control_rate_mbps = 0.0;
  /// Agent-side send budget in bytes of link backlog: sheddable traffic
  /// (periodic stats, sync) beyond this is dropped at the transport rather
  /// than queued behind the serializer (0 = unbounded).
  long long send_budget_bytes = 0;
};

struct ScenarioUeSpec {
  lte::EnbId enb = 1;
  int cqi = 15;
  int ul_cqi = 8;
  std::string traffic = "full_buffer";
  double rate_mbps = 1.0;
  /// Uplink application traffic: "none" | "full_buffer" | "cbr".
  std::string ul_traffic = "none";
  double ul_rate_mbps = 1.0;
  /// Optional CQI trace (one sample per `cqi_trace_period_ms`); overrides
  /// the fixed `cqi` when non-empty.
  std::vector<int> cqi_trace;
  double cqi_trace_period_ms = 1000.0;
};

struct ScenarioSpec {
  double duration_s = 5.0;
  std::uint32_t stats_period_ttis = 1;
  /// Base RNG seed: eNodeB i runs with seed `seed + i`. The CLI's
  /// `--seed=N` overrides it, so chaos soaks can sweep seeds without
  /// editing the document.
  std::uint64_t seed = 1;
  // ---- two-tier control plane (docs/sharded_control.md) ---------------------
  /// ShardCore count under the Coordinator. 1 (default) is the classic
  /// monolithic master; > 1 places agents by stable hash of their enb_id
  /// (or a per-eNodeB `shard:` pin) and the summary grows per-shard lines.
  std::size_t shards = 1;
  /// Dead-shard watchdog (docs/sharded_control.md "Shard failover"): fail
  /// a shard that completes no cycle for this many coordinator cycles
  /// while owning agents (0 = off; throwing shards always fail fast).
  long long shard_stall_cycles = 0;
  /// Run the centralized scheduler app at the master (one instance per
  /// shard when sharded -- the scheduler is a per-shard, not a composite,
  /// app).
  bool remote_scheduler = false;
  int schedule_ahead_sf = 2;
  // ---- fault tolerance (docs/fault_tolerance.md) ----------------------------
  /// Master: mark agents stale / down after this much silence (0 = never).
  double agent_timeout_ms = 0.0;
  double agent_disconnect_timeout_ms = 0.0;
  /// Master: track requests and retry after this timeout (0 = off).
  double request_timeout_ms = 0.0;
  // ---- overload protection (docs/overload_protection.md) --------------------
  /// Master ingest budget for the bounded control-plane queue: messages /
  /// bytes of pending RIB updates. 0/0 = unbounded, overload machinery off.
  long long ingest_max_messages = 0;
  long long ingest_max_bytes = 0;
  // ---- observability (docs/observability.md) --------------------------------
  /// Enable the unified metrics layer: master registry + collectors, cycle
  /// tracing, Envelope timestamp echo, periodic JSON dumps. Off (default)
  /// is seed-identical.
  bool observability = false;
  /// Period of the JSON metrics dumps collected during the run.
  double metrics_period_s = 1.0;
  // ---- master crash recovery (docs/fault_tolerance.md "Master restart") -----
  /// Enable incarnation epochs, paced re-sync admission and the app
  /// readiness barrier. Off (default) is seed-identical on the wire.
  bool master_recovery = false;
  /// Re-sync admission rate (agents/s) after a master restart; 0 = unpaced.
  double resync_tokens_per_s = 0.0;
  /// Token-bucket burst: agents admitted back-to-back before pacing bites.
  double resync_burst = 4.0;
  /// Backoff hint piggybacked to deferred agents while they wait.
  double resync_retry_after_ms = 50.0;
  /// Recovery ends when this fraction of known agents has re-synced ...
  double readiness_quorum = 1.0;
  /// ... or after this long, whichever comes first (0 = quorum only).
  double readiness_timeout_ms = 2000.0;
  /// Keep a warm checkpoint (in-memory sink) so a restart recovers via a
  /// delta re-sync instead of full config re-fetch.
  bool warm_checkpoint = false;
  /// Checkpoint period; only meaningful with warm_checkpoint.
  double checkpoint_period_s = 0.5;
  // ---- runtime verification (docs/chaos_fuzzing.md) -------------------------
  /// InvariantMonitor mode for the run: "off" (default; seed-identical),
  /// "log" (count + record violations in the summary -- the fuzzer's mode,
  /// so schedules can be minimized) or "trap" (abort with a cycle trace on
  /// the first violation -- what ctest scenarios and chaos soaks use).
  std::string invariants = "off";
  /// Deliberately re-introduced defect for monitor/fuzzer self-checks:
  /// "" (none) or "stale_composite" (composite-cache invalidation removed;
  /// the monitor must catch it). See docs/chaos_fuzzing.md.
  std::string defect;
  /// Scripted chaos timeline, executed by a FaultInjector during the run.
  std::vector<FaultEvent> faults;
  std::vector<ScenarioEnbSpec> enbs;
  std::vector<ScenarioUeSpec> ues;
};

/// Parses a scenario document; rejects unknown traffic kinds, missing
/// eNodeB references, and malformed values.
util::Result<ScenarioSpec> parse_scenario(const std::string& yaml);

struct UeRunResult {
  lte::EnbId enb = 0;
  lte::Rnti rnti = lte::kInvalidRnti;
  bool connected = false;
  int cqi = 0;
  double dl_mbps = 0.0;
  double ul_mbps = 0.0;
};

struct ScenarioRunSummary {
  std::vector<UeRunResult> ues;
  double duration_s = 0.0;
  std::int64_t master_cycles = 0;
  /// Every master counter, summed over the shards (ctrl::kShardStatFields).
  ctrl::ShardStats fleet;
  /// Aggregate agent->master / master->agent signaling, Mb/s.
  double uplink_signaling_mbps = 0.0;
  double downlink_signaling_mbps = 0.0;
  // ---- fault-tolerance outcome (non-zero only for chaos scenarios) ----------
  std::uint64_t faults_injected = 0;
  std::uint32_t agent_reconnects = 0;
  /// Agents whose session is fully re-synced (state up) at the end.
  int agents_up = 0;
  int agents_total = 0;
  // ---- delegated-control containment (docs/delegation_safety.md) ------------
  std::uint64_t vsf_failures = 0;
  std::uint64_t vsf_quarantines = 0;
  std::uint64_t vsf_fallback_decisions = 0;
  /// TTIs where neither the active VSF nor the fallback produced a valid
  /// decision. The containment invariant is that this stays 0.
  std::uint64_t unscheduled_slots = 0;
  /// Agents whose active DL scheduler is a non-quarantined implementation
  /// at the end of the run (should equal agents_total).
  int agents_on_valid_policy = 0;
  // ---- overload protection outcome (docs/overload_protection.md) ------------
  /// Master overload state at the end of the run (should be normal again
  /// once a flood clears).
  ctrl::OverloadState overload_state = ctrl::OverloadState::normal;
  // ---- master crash recovery outcome (docs/fault_tolerance.md) --------------
  /// Agent-side fence: messages from a stale master incarnation dropped.
  std::uint64_t fenced_incarnation_messages = 0;
  /// True when the run ended with recovery still in progress (bad).
  bool recovering_at_end = false;
  /// Crash-to-readiness-barrier time of the last recovery, ms (0 = none).
  double time_to_ready_ms = 0.0;
  /// Per-eNodeB control-link frame counters (same order as the spec's
  /// enbs), uplink = agent -> master.
  struct LinkStats {
    LinkCounters uplink;
    LinkCounters downlink;
  };
  std::vector<LinkStats> links;
  // ---- two-tier control plane (docs/sharded_control.md) ---------------------
  /// Shard count the run used; the per-shard breakdown below is filled
  /// only when > 1 (single-shard output stays byte-identical).
  std::size_t shards = 1;
  struct ShardSummary {
    std::size_t agents = 0;
    ctrl::ShardStats stats;
    ctrl::OverloadState overload_state = ctrl::OverloadState::normal;
    bool recovering = false;
    ctrl::Coordinator::ShardHealth health = ctrl::Coordinator::ShardHealth::alive;
  };
  std::vector<ShardSummary> shard_summaries;
  // ---- shard failover outcome (docs/sharded_control.md "Shard failover") ----
  /// `agents_orphaned` and `failover_pending` should end at 0 in every
  /// scenario.
  ctrl::FailoverStats failover;
  // ---- runtime verification (docs/chaos_fuzzing.md) -------------------------
  /// Invariant checks the monitor ran (0 = monitor off) and violations it
  /// recorded; the first few violation details ride along for the CLI.
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::vector<std::string> invariant_details;
  // ---- observability (docs/observability.md) --------------------------------
  /// True when the run had the metrics layer enabled (the fields below are
  /// empty otherwise).
  bool observability = false;
  /// Periodic registry dumps, one JSON object per metrics period (the last
  /// entry is the end-of-run state).
  std::vector<std::string> metrics_json;
  /// Prometheus text snapshot of the final registry state.
  std::string metrics_prometheus;
  /// Human-readable unified metrics block appended to the summary table.
  std::string metrics_block;
};

/// Builds the testbed from the spec, runs it, and collects the summary.
ScenarioRunSummary run_scenario(const ScenarioSpec& spec);

/// Renders the summary as the CLI's output table.
std::string format_summary(const ScenarioRunSummary& summary);

/// Serializes a spec back into the YAML-lite dialect parse_scenario reads.
/// Covers every field the chaos fuzzer generates, so
/// parse_scenario(scenario_to_yaml(spec)) reproduces the run exactly --
/// this is how minimized repros become standalone scenario files.
std::string scenario_to_yaml(const ScenarioSpec& spec);

}  // namespace flexran::scenario
