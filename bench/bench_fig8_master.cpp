// Figure 8 reproduction: master controller resource usage vs number of
// connected agents (16 UEs each, per-TTI reporting, centralized scheduler
// app). Reports the measured per-cycle time of the core components (RIB
// updater slot) and the applications slot, the idle fraction of the 1 ms
// TTI cycle, and the memory footprint of the RIB.
//
// Part 2 sweeps the task manager's worker pool (0 = the original inline
// time-sliced loop, then 1/2/4/8 workers) against agent counts and emits
// the series as JSON (BENCH_fig8_workers.json) so the perf trajectory is
// tracked across revisions.
//
// Part 3 sweeps the two-tier control plane (docs/sharded_control.md): a
// fixed fleet of simulated agents and a fixed pool of stalling analytics
// apps, partitioned across 1/2/4/8 ShardCores under one Coordinator in a
// single process. The per-shard series rides in the same JSON file.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "apps/monitoring.h"
#include "apps/remote_scheduler.h"
#include "bench/bench_common.h"
#include "controller/coordinator.h"
#include "controller/rib_snapshot.h"
#include "controller/task_manager.h"
#include "net/sim_transport.h"
#include "traffic/udp.h"

using namespace flexran;

namespace {

/// The application slot as Fig. 8 reports it: event dispatch, the apps and
/// the command flush, from the Task Manager's stage table.
double app_slot_us(const ctrl::CycleStages& stages) {
  return stages.event.mean() + stages.apps.mean() + stages.flush.mean();
}

/// Every per-cycle time below is the best of this many equal rounds of its
/// run, so a slow stretch of a shared host inside a run does not count.
/// Runs still differ with the host's load between them (EXPERIMENTS.md).
constexpr int kRounds = 5;

/// Mean of the samples `now` gained since `start` (0 when none).
double mean_since(const util::RunningStats& start, const util::RunningStats& now) {
  const auto n = now.count() - start.count();
  return n > 0 ? (now.total() - start.total()) / static_cast<double>(n) : 0.0;
}

/// The lowest per-cycle slot times of any round folded in.
struct BestSlots {
  double core_us = 0.0;     // RIB updater slot
  double apps_us = 0.0;     // app_slot_us
  double publish_us = 0.0;  // snapshot publish, the tail of the updater slot

  /// Folds in the round the stage table ran from `start` to `now`.
  void add_round(const ctrl::CycleStages& start, const ctrl::CycleStages& now) {
    const double core = mean_since(start.updater, now.updater);
    const double apps = mean_since(start.event, now.event) + mean_since(start.apps, now.apps) +
                        mean_since(start.flush, now.flush);
    const double publish = mean_since(start.publish, now.publish);
    core_us = rounds_ == 0 ? core : std::min(core_us, core);
    apps_us = rounds_ == 0 ? apps : std::min(apps_us, apps);
    publish_us = rounds_ == 0 ? publish : std::min(publish_us, publish);
    ++rounds_;
  }

 private:
  int rounds_ = 0;
};

/// Runs `run_round` kRounds times against `tm` and keeps the best slots. A
/// pipelined `tm` must be quiesced at the end of each round.
template <typename RunRound>
BestSlots best_of_rounds(const ctrl::TaskManager& tm, RunRound&& run_round) {
  BestSlots best;
  for (int r = 0; r < kRounds; ++r) {
    const ctrl::CycleStages start = tm.stages();
    run_round(r);
    best.add_round(start, tm.stages());
  }
  return best;
}

struct MasterLoad {
  double apps_us = 0.0;
  double core_us = 0.0;
  double idle_fraction = 0.0;
  double rib_kb = 0.0;
  std::uint64_t updates = 0;
};

MasterLoad run(int n_agents, double seconds) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>());
  testbed.master().add_app(std::make_unique<apps::MonitoringApp>(100));

  std::vector<std::unique_ptr<traffic::UdpCbrSource>> sources;
  for (int a = 0; a < n_agents; ++a) {
    testbed.add_enb(bench::basic_enb(static_cast<lte::EnbId>(a + 1)));
    for (int i = 0; i < 16; ++i) {
      const auto rnti =
          testbed.add_ue(static_cast<std::size_t>(a), bench::fixed_cqi_ue(8 + i % 8, 5 + i));
      sources.push_back(std::make_unique<traffic::UdpCbrSource>(
          testbed.sim(),
          [&testbed, rnti](std::uint32_t bytes) { (void)testbed.epc().downlink(rnti, bytes); },
          1.5));
      sources.back()->start();
    }
  }
  const auto& tm = testbed.master().task_manager();
  const auto best = best_of_rounds(tm, [&](int) { testbed.run_seconds(seconds / kRounds); });

  MasterLoad load;
  load.apps_us = best.apps_us;
  load.core_us = best.core_us;
  load.idle_fraction = tm.mean_idle_fraction();
  load.rib_kb = static_cast<double>(testbed.master().rib_bytes()) / 1024.0;
  load.updates = testbed.master().stats().updates_applied;
  return load;
}

/// 0-agent case: the master alone, cycled manually.
MasterLoad run_empty(double seconds) {
  sim::Simulator simulator;
  ctrl::ShardCore master(simulator, scenario::per_tti_master_config());
  master.add_app(std::make_unique<apps::RemoteSchedulerApp>());
  master.add_app(std::make_unique<apps::MonitoringApp>(100));
  sim::TtiTicker ticker(simulator);
  ticker.subscribe([&](std::int64_t) { master.run_cycle(); });
  ticker.start();
  const auto best = best_of_rounds(master.task_manager(), [&](int r) {
    simulator.run_until(sim::from_seconds(seconds * (r + 1) / kRounds));
  });

  MasterLoad load;
  load.apps_us = best.apps_us;
  load.core_us = best.core_us;
  load.idle_fraction = master.task_manager().mean_idle_fraction();
  load.rib_kb = static_cast<double>(master.rib_bytes()) / 1024.0;
  return load;
}

// ---------------------------------------------------------- worker sweep --

/// No-op command sink for the standalone task-manager sweep.
class SinkNorthbound : public ctrl::NorthboundApi {
 public:
  explicit SinkNorthbound(const ctrl::Rib& rib) : rib_(&rib) {}
  std::shared_ptr<const ctrl::RibSnapshot> rib_snapshot() const override {
    return rib_->current();
  }
  sim::TimeUs now() const override { return 0; }
  std::int64_t agent_subframe(ctrl::AgentId) const override { return 0; }
  util::Status send_dl_mac_config(ctrl::AgentId, const proto::DlMacConfig&) override {
    return {};
  }
  util::Status send_ul_mac_config(ctrl::AgentId, const proto::UlMacConfig&) override {
    return {};
  }
  util::Status send_handover(ctrl::AgentId, const proto::HandoverCommand&) override { return {}; }
  util::Status send_abs_config(ctrl::AgentId, const proto::AbsConfig&) override { return {}; }
  util::Status send_carrier_restriction(ctrl::AgentId, const proto::CarrierRestriction&) override {
    return {};
  }
  util::Status send_drx_config(ctrl::AgentId, const proto::DrxConfig&) override { return {}; }
  util::Status send_scell_command(ctrl::AgentId, const proto::ScellCommand&) override {
    return {};
  }
  util::Status request_stats(ctrl::AgentId, const proto::StatsRequest&) override { return {}; }
  util::Status subscribe_events(ctrl::AgentId, std::vector<proto::EventType>, bool) override {
    return {};
  }
  util::Status push_vsf(ctrl::AgentId, const std::string&, const std::string&,
                        const std::string&) override {
    return {};
  }
  util::Status send_policy(ctrl::AgentId, const std::string&) override { return {}; }

 private:
  const ctrl::Rib* rib_;
};

/// Per-agent control app for the sweep: reads its agent's subtree from the
/// pinned snapshot, stalls for `stall_us` simulating a synchronous call to
/// an external analytics/policy service (the MEC pattern of Sec. 6.2 --
/// the kind of app-side blocking the paper's single-threaded app slot
/// serializes), and issues one batched command.
class StallApp final : public ctrl::App {
 public:
  StallApp(ctrl::AgentId agent, std::int64_t stall_us)
      : agent_(agent), stall_us_(stall_us), name_("stall-" + std::to_string(agent)) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return 1; }
  void on_cycle(std::int64_t, ctrl::NorthboundApi& api) override {
    const auto snapshot = api.rib_snapshot();
    const auto* agent = snapshot->find_agent(agent_);
    if (agent != nullptr) {
      for (const auto& ue : agent->ues) checksum_ += ue.stats.wb_cqi;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    (void)api.send_policy(agent_, "sweep");
  }
  std::uint64_t checksum() const { return checksum_; }

 private:
  ctrl::AgentId agent_;
  std::int64_t stall_us_;
  std::string name_;
  std::uint64_t checksum_ = 0;
};

/// Whole-RIB reader in the non-critical tier (monitoring analogue).
class SweepMonitorApp final : public ctrl::App {
 public:
  std::string_view name() const override { return "sweep-monitor"; }
  int priority() const override { return 200; }
  void on_cycle(std::int64_t, ctrl::NorthboundApi& api) override {
    const auto snapshot = api.rib_snapshot();
    for (const auto& [id, agent] : snapshot->agents()) {
      (void)id;
      ues_seen_ += agent->ues.size();
    }
  }

 private:
  std::uint64_t ues_seen_ = 0;
};

struct SweepResult {
  int workers = 0;
  int agents = 0;
  double cycles_per_sec = 0.0;
  double mean_cycle_us = 0.0;
  double mean_updater_us = 0.0;
  double mean_app_slot_us = 0.0;
  double mean_publish_us = 0.0;
  std::uint64_t commands = 0;
};

SweepResult run_sweep(int workers, int n_agents, int cycles, std::int64_t stall_us) {
  ctrl::Rib rib;
  for (ctrl::AgentId id = 1; id <= static_cast<ctrl::AgentId>(n_agents); ++id) {
    auto& agent = rib.add_agent(id);
    agent.enb_id = id;
    agent.cell(id).config.bandwidth_mhz = 10.0;
    for (lte::Rnti rnti = 70; rnti < 86; ++rnti) {  // 16 UEs per agent
      auto& ue = agent.ues[agent.upsert_ue(rnti)];
      ue.cell = id;
      ue.stats.wb_cqi = 10;
    }
  }

  ctrl::TaskManagerConfig config;
  config.real_time = false;
  config.workers = workers;
  ctrl::TaskManager tm(
      config,
      // Updater slot: per-TTI stats churn on every agent (the worst case:
      // every node cloned), then the snapshot publish -- exactly what the
      // master does.
      [&](std::int64_t) {
        for (ctrl::AgentId id = 1; id <= static_cast<ctrl::AgentId>(n_agents); ++id) {
          auto& agent = rib.agent(id);
          for (auto& ue : agent.ues) ue.stats.dl_bytes_delivered += 1500;
        }
      },
      [&] { rib.publish(); }, nullptr);
  tm.set_snapshot_source([&] { return rib.current(); }, [] { return sim::TimeUs{0}; });

  SinkNorthbound api(rib);
  std::vector<std::unique_ptr<ctrl::App>> apps;
  for (ctrl::AgentId id = 1; id <= static_cast<ctrl::AgentId>(n_agents); ++id) {
    apps.push_back(std::make_unique<StallApp>(id, stall_us));
  }
  apps.push_back(std::make_unique<SweepMonitorApp>());
  for (auto& app : apps) tm.add_app(app.get(), api);

  const int round_cycles = cycles / kRounds;
  double best_cycle_us = 0.0;
  const auto best = best_of_rounds(tm, [&](int r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < round_cycles; ++i) tm.run_cycle(r * round_cycles + i);
    tm.quiesce();
    const double cycle_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count() /
                            round_cycles;
    if (r == 0 || cycle_us < best_cycle_us) best_cycle_us = cycle_us;
  });

  SweepResult result;
  result.workers = workers;
  result.agents = n_agents;
  result.cycles_per_sec = 1e6 / best_cycle_us;
  result.mean_cycle_us = best_cycle_us;
  result.mean_updater_us = best.core_us;
  result.mean_app_slot_us = best.apps_us;
  result.mean_publish_us = best.publish_us;
  result.commands = tm.commands_flushed();
  return result;
}

// ---------------------------------------------------------- shard sweep --

/// Analytics app for the shard sweep: scans the snapshot its shard
/// publishes and stalls on a simulated external service call, like the
/// worker-sweep StallApp but shard-resident. The app pool is fixed while
/// the shard count varies, so the sweep measures how partitioning the SAME
/// application workload across shard app slots shortens the cycle.
class ShardAnalyticsApp final : public ctrl::App {
 public:
  ShardAnalyticsApp(int index, std::int64_t stall_us)
      : stall_us_(stall_us), name_("analytics-" + std::to_string(index)) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return 1; }
  void on_cycle(std::int64_t, ctrl::NorthboundApi& api) override {
    const auto snapshot = api.rib_snapshot();
    for (const auto& [id, agent] : snapshot->agents()) {
      (void)id;
      checksum_ += agent->ues.size();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
  }

 private:
  std::int64_t stall_us_;
  std::string name_;
  std::uint64_t checksum_ = 0;
};

struct ShardDetail {
  std::size_t agents = 0;
  std::uint64_t updates = 0;
  double updater_us = 0.0;
  double app_slot_us = 0.0;
};

struct ShardSweepResult {
  std::size_t shards = 1;
  int agents = 0;
  double cycles_per_sec = 0.0;
  double mean_cycle_us = 0.0;
  std::uint64_t updates = 0;
  std::vector<ShardDetail> per_shard;
};

/// One wire-encoded StatsReply (2 UEs), the frame every simulated agent
/// replays. Epoch 0 matches the session epoch add_agent starts with.
std::vector<std::uint8_t> shard_sweep_stats_frame() {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = 1;
  for (lte::Rnti rnti = 70; rnti < 72; ++rnti) {
    proto::UeStatsReport report;
    report.rnti = rnti;
    report.wb_cqi = 10;
    report.dl_bytes_delivered = 1500;
    reply.ue_reports.push_back(report);
  }
  proto::WireEncoder enc;
  reply.encode_body(enc);
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_reply;
  envelope.xid = 0;
  envelope.body = enc.take();
  return envelope.encode();
}

ShardSweepResult run_shard_sweep(std::size_t shards, int n_agents, int cycles,
                                 int n_apps, std::int64_t stall_us, int report_period) {
  sim::Simulator simulator;
  ctrl::CoordinatorConfig config;
  config.shards = shards;
  config.shard.auto_configure = false;  // agents are injected, no hello
  config.shard.echo_period_cycles = 0;
  config.shard.task_manager.real_time = false;
  config.shard.task_manager.workers = 1;  // one app-slot worker per shard
  ctrl::Coordinator coordinator(simulator, config);

  // Block placement: agent i on shard i*S/N, so each analytics app's
  // agent range lives wholly on the shard the app is registered with.
  std::vector<net::SimTransportPair> links;
  links.reserve(static_cast<std::size_t>(n_agents));
  for (int i = 0; i < n_agents; ++i) {
    links.push_back(net::make_sim_transport_pair(simulator));
    const auto shard = static_cast<std::size_t>(i) * shards / static_cast<std::size_t>(n_agents);
    coordinator.add_agent(*links.back().a, static_cast<std::uint64_t>(i + 1), shard);
  }
  for (int a = 0; a < n_apps; ++a) {
    const auto shard = static_cast<std::size_t>(a) * shards / static_cast<std::size_t>(n_apps);
    coordinator.shard(shard).add_app(std::make_unique<ShardAnalyticsApp>(a, stall_us));
  }

  const auto frame = shard_sweep_stats_frame();
  sim::TimeUs t = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Staggered periodic reporting: 1/report_period of the fleet per TTI.
    for (int i = cycle % report_period; i < n_agents; i += report_period) {
      (void)links[static_cast<std::size_t>(i)].b->send(frame);
    }
    t += 1000;
    simulator.run_until(t);  // deliver this TTI's reports
    coordinator.run_cycle();
  }
  coordinator.quiesce();
  const double wall_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start).count();

  ShardSweepResult result;
  result.shards = shards;
  result.agents = n_agents;
  result.cycles_per_sec = cycles / (wall_us / 1e6);
  result.mean_cycle_us = wall_us / cycles;
  result.updates = coordinator.updates_applied();
  for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
    const auto& core = coordinator.shard(s);
    ShardDetail detail;
    detail.agents = core.rib().agents().size();
    detail.updates = core.stats().updates_applied;
    detail.updater_us = core.task_manager().stages().updater.mean();
    detail.app_slot_us = app_slot_us(core.task_manager().stages());
    result.per_shard.push_back(detail);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double kSeconds = 5.0;
  bench::print_header("Fig. 8 -- master TTI-cycle utilization & memory (16 UEs/agent)");
  bench::print_note(
      "paper: only a small fraction of the 1 ms cycle used; core-component time\n"
      "grows with agents (RIB updater); memory grows with the RIB (~5-10 MB\n"
      "process-level; here the RIB data structure itself is reported).");

  std::printf("\n%8s %14s %14s %12s %12s %14s\n", "agents", "apps (us)", "core (us)",
              "idle (%)", "RIB (KB)", "updates/s");
  for (int agents = 0; agents <= 3; ++agents) {
    const auto load = agents == 0 ? run_empty(kSeconds) : run(agents, kSeconds);
    std::printf("%8d %14.2f %14.2f %12.1f %12.1f %14.0f\n", agents, load.apps_us, load.core_us,
                load.idle_fraction * 100.0, load.rib_kb,
                static_cast<double>(load.updates) / kSeconds);
  }
  std::printf(
      "\nShape check: core-component time and RIB size grow with the number of\n"
      "agents while the cycle stays almost entirely idle, as in the paper.\n");

  // ---- Part 2: worker-pool sweep ------------------------------------------
  const int kCycles = 600;
  const std::int64_t kStallUs = 100;
  bench::print_header("Worker sweep -- pipelined task manager (16 UEs/agent)");
  bench::print_note(
      "Standalone task manager; one priority-1 app per agent, each stalling\n"
      "100 us per cycle on a simulated external analytics/policy call, plus\n"
      "one monitoring app (priority 200). workers=0 is the original inline\n"
      "time-sliced loop. Host core count bounds CPU-parallel speedup; the\n"
      "gain measured here comes from overlapping the app-side stalls, which\n"
      "the single-threaded design serializes.");

  std::vector<SweepResult> results;
  std::printf("\n%8s %8s %14s %14s %14s %14s %14s\n", "workers", "agents", "cycles/s",
              "cycle (us)", "updater (us)", "app slot (us)", "publish (us)");
  for (const int agents : {2, 4, 8}) {
    double base_cps = 0.0;
    for (const int workers : {0, 1, 2, 4, 8}) {
      const auto r = run_sweep(workers, agents, kCycles, kStallUs);
      results.push_back(r);
      if (workers == 1) base_cps = r.cycles_per_sec;
      std::printf("%8d %8d %14.0f %14.1f %14.2f %14.1f %14.2f", r.workers, r.agents,
                  r.cycles_per_sec, r.mean_cycle_us, r.mean_updater_us, r.mean_app_slot_us,
                  r.mean_publish_us);
      if (workers > 1 && base_cps > 0.0) {
        std::printf("   (%.2fx vs 1 worker)", r.cycles_per_sec / base_cps);
      }
      std::printf("\n");
    }
  }

  // ---- Part 3: shard sweep ------------------------------------------------
  const int kShardAgents = 1024;
  const int kShardCycles = 150;
  const int kShardApps = 8;
  const std::int64_t kShardStallUs = 500;
  const int kReportPeriod = 4;
  bench::print_header("Shard sweep -- two-tier control plane (1024 agents, 8 analytics apps)");
  bench::print_note(
      "One process, one Coordinator over N ShardCores (1 app-slot worker\n"
      "each). 1024 simulated agents replay a periodic StatsReply (1/4 of the\n"
      "fleet per TTI); a fixed pool of 8 priority-1 analytics apps each\n"
      "stalls 500 us per cycle on a simulated external service call. Sharding\n"
      "partitions that app pool across shard app slots, so the stalls -- which\n"
      "a single master serializes -- overlap across shard workers; on a\n"
      "single-core host that overlap, not CPU parallelism, is the win.");

  std::vector<ShardSweepResult> shard_results;
  std::printf("\n%8s %8s %14s %14s %14s %16s\n", "shards", "agents", "cycles/s", "cycle (us)",
              "updates/cyc", "worst slot (us)");
  double single_master_cps = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const auto r = run_shard_sweep(shards, kShardAgents, kShardCycles, kShardApps, kShardStallUs,
                                   kReportPeriod);
    shard_results.push_back(r);
    if (shards == 1) single_master_cps = r.cycles_per_sec;
    double worst_slot = 0.0;
    for (const auto& d : r.per_shard) worst_slot = std::max(worst_slot, d.app_slot_us);
    std::printf("%8zu %8d %14.0f %14.1f %14.0f %16.1f", r.shards, r.agents, r.cycles_per_sec,
                r.mean_cycle_us, static_cast<double>(r.updates) / kShardCycles, worst_slot);
    if (shards > 1 && single_master_cps > 0.0) {
      std::printf("   (%.2fx vs 1 shard)", r.cycles_per_sec / single_master_cps);
    }
    std::printf("\n");
  }
  for (const auto& r : shard_results) {
    if (r.shards >= 4 && r.cycles_per_sec <= single_master_cps) {
      std::printf("WARNING: %zu shards did not beat the single master (%.0f <= %.0f cycles/s)\n",
                  r.shards, r.cycles_per_sec, single_master_cps);
    }
  }

  const char* json_path = argc > 1 ? argv[1] : "BENCH_fig8_workers.json";
  std::ofstream json(json_path);
  json << "{\n  "
       << bench::json_header(
              "fig8_worker_sweep",
              "cycles=" + std::to_string(kCycles) + " rounds=" + std::to_string(kRounds) +
                  " stall_us=" + std::to_string(kStallUs) +
                  " agents=2,4,8 workers=0,1,2,4,8 shard_agents=" +
                  std::to_string(kShardAgents) + " shard_cycles=" +
                  std::to_string(kShardCycles) + " shard_apps=" + std::to_string(kShardApps) +
                  " shard_stall_us=" + std::to_string(kShardStallUs) +
                  " report_period=" + std::to_string(kReportPeriod) + " shards=1,2,4,8")
       << ",\n  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"cycles\": " << kCycles << ",\n  \"stall_us\": " << kStallUs << ",\n"
       << "  \"note\": \"per-agent priority-1 apps each stall stall_us on a simulated "
          "external service call per cycle; speedup = overlap of those stalls across "
          "workers (single-core host: CPU-bound work does not parallelize)\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"workers\": " << r.workers << ", \"agents\": " << r.agents
         << ", \"cycles_per_sec\": " << static_cast<std::uint64_t>(r.cycles_per_sec)
         << ", \"mean_cycle_us\": " << r.mean_cycle_us
         << ", \"mean_updater_us\": " << r.mean_updater_us
         << ", \"mean_app_slot_us\": " << r.mean_app_slot_us
         << ", \"mean_snapshot_publish_us\": " << r.mean_publish_us
         << ", \"commands_flushed\": " << r.commands << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"shard_sweep\": {\n"
       << "    \"agents\": " << kShardAgents << ", \"cycles\": " << kShardCycles
       << ", \"apps\": " << kShardApps << ", \"stall_us\": " << kShardStallUs
       << ", \"report_period_ttis\": " << kReportPeriod << ",\n"
       << "    \"note\": \"fixed fleet + fixed app pool partitioned across N ShardCores "
          "under one Coordinator; speedup = overlap of app-slot stalls across shard "
          "workers\",\n"
       << "    \"results\": [\n";
  for (std::size_t i = 0; i < shard_results.size(); ++i) {
    const auto& r = shard_results[i];
    json << "      {\"shards\": " << r.shards << ", \"agents\": " << r.agents
         << ", \"cycles_per_sec\": " << static_cast<std::uint64_t>(r.cycles_per_sec)
         << ", \"mean_cycle_us\": " << r.mean_cycle_us << ", \"updates\": " << r.updates
         << ", \"per_shard\": [";
    for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
      const auto& d = r.per_shard[s];
      json << (s > 0 ? ", " : "") << "{\"shard\": " << s << ", \"agents\": " << d.agents
           << ", \"updates\": " << d.updates << ", \"mean_updater_us\": " << d.updater_us
           << ", \"mean_app_slot_us\": " << d.app_slot_us << "}";
    }
    json << "]}" << (i + 1 < shard_results.size() ? "," : "") << "\n";
  }
  json << "    ]\n  }\n}\n";
  std::printf("\nJSON series written to %s\n", json_path);
  return 0;
}
