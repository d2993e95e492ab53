// Control-channel recovery benchmark (docs/fault_tolerance.md): partitions
// the control channel of a remotely scheduled cell, heals it, and measures
// how long the control plane takes to recover -- time from heal to the
// first applied remote DL MAC decision, and to the master declaring the
// session fully re-synced. Emits the results as JSON (one object on the
// last line) for scripted consumption.
//
// Second part ("Master restart"): crashes and restarts the master itself
// over a growing fleet and measures time-to-recovery -- restart to the
// readiness barrier dropping -- cold (RIB rebuilt from full re-syncs)
// versus warm (delta re-sync from a checkpoint). Writes the sweep to
// BENCH_master_recovery.json.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "controller/checkpoint_sink.h"

#include "apps/remote_scheduler.h"
#include "bench/bench_common.h"
#include "scenario/fault_injector.h"
#include "util/logging.h"

namespace {

using namespace flexran;

struct RecoveryRun {
  double partition_ms = 0.0;
  double heal_to_first_remote_decision_ms = -1.0;
  double heal_to_resync_ms = -1.0;
  bool fallback_activated = false;
  bool fallback_recovered = false;
  std::uint64_t requests_retried = 0;
  std::uint64_t requests_failed = 0;
  double dl_mbps_pre = 0.0;
  double dl_mbps_outage = 0.0;
  double dl_mbps_post = 0.0;
};

RecoveryRun measure(double partition_ms) {
  constexpr double kWarmupS = 1.0;
  constexpr double kSettleS = 1.5;
  constexpr sim::TimeUs kControlDelay = sim::from_ms(2.0);

  ctrl::MasterConfig master_config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  master_config.agent_timeout_us = sim::from_ms(50.0);
  master_config.agent_disconnect_timeout_us = sim::from_ms(200.0);
  master_config.request_timeout_us = sim::from_ms(30.0);
  scenario::Testbed testbed(std::move(master_config));

  apps::RemoteSchedulerConfig app_config;
  app_config.schedule_ahead_sf = 8;
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(app_config));

  scenario::EnbSpec spec = bench::basic_enb(1, "recovery");
  spec.agent.dl_scheduler = "remote";
  spec.agent.remote_fallback_ttis = 30;
  spec.agent.fallback_scheduler = "local_rr";
  spec.uplink.delay = kControlDelay;
  spec.downlink.delay = kControlDelay;
  scenario::Testbed::Enb& enb = testbed.add_enb(spec);

  const auto rnti_a = testbed.add_ue(0, bench::fixed_cqi_ue(15));
  const auto rnti_b = testbed.add_ue(0, bench::fixed_cqi_ue(9, /*attach_after=*/2));
  bench::saturate_dl(testbed, 0, rnti_a);
  bench::saturate_dl(testbed, 0, rnti_b);

  RecoveryRun run;
  run.partition_ms = partition_ms;

  // Recovery probe, armed at the heal instant by the fault timeline below.
  struct Probe {
    bool armed = false;
    sim::TimeUs heal_at = 0;
    std::uint64_t decisions_at_heal = 0;
    sim::TimeUs first_decision_at = -1;
    sim::TimeUs resynced_at = -1;
  } probe;
  agent::Agent* agent = enb.agent.get();
  const ctrl::AgentId agent_id = enb.agent_id;
  testbed.on_tti([&](std::int64_t) {
    if (!probe.armed) return;
    if (probe.first_decision_at < 0 &&
        agent->remote_decisions_applied() > probe.decisions_at_heal) {
      probe.first_decision_at = testbed.sim().now();
    }
    if (probe.resynced_at < 0) {
      const auto* node = testbed.master().rib().find_agent(agent_id);
      if (node != nullptr && node->state == ctrl::SessionState::up) {
        probe.resynced_at = testbed.sim().now();
      }
    }
  });

  auto delivered = [&] {
    return testbed.metrics().total_bytes(1, rnti_a, lte::Direction::downlink) +
           testbed.metrics().total_bytes(1, rnti_b, lte::Direction::downlink);
  };

  testbed.run_seconds(kWarmupS);
  const std::uint64_t bytes_warmup = delivered();

  enb.set_control_down(true);
  testbed.run_seconds(partition_ms / 1000.0);
  const std::uint64_t bytes_outage = delivered();
  run.fallback_activated = agent->fallback_activations() > 0;

  enb.set_control_down(false);
  probe.armed = true;
  probe.heal_at = testbed.sim().now();
  probe.decisions_at_heal = agent->remote_decisions_applied();
  testbed.run_seconds(kSettleS);
  const std::uint64_t bytes_post = delivered();

  if (probe.first_decision_at >= 0) {
    run.heal_to_first_remote_decision_ms =
        static_cast<double>(probe.first_decision_at - probe.heal_at) / 1000.0;
  }
  if (probe.resynced_at >= 0) {
    run.heal_to_resync_ms = static_cast<double>(probe.resynced_at - probe.heal_at) / 1000.0;
  }
  run.fallback_recovered = agent->fallback_recoveries() > 0;
  run.requests_retried = testbed.master().stats().requests_retried;
  run.requests_failed = testbed.master().stats().requests_failed;
  run.dl_mbps_pre = scenario::Metrics::mbps(bytes_warmup, kWarmupS);
  run.dl_mbps_outage =
      scenario::Metrics::mbps(bytes_outage - bytes_warmup, partition_ms / 1000.0);
  run.dl_mbps_post = scenario::Metrics::mbps(bytes_post - bytes_outage, kSettleS);
  return run;
}

struct MasterRestartRun {
  int agents = 0;
  bool warm = false;
  double time_to_ready_ms = -1.0;
  bool recovered = false;
  bool checkpoint_loaded = false;
  std::uint64_t resyncs_paced = 0;
  std::uint64_t commands_held = 0;
  std::uint64_t policies_repushed = 0;
  int agents_up = 0;
};

MasterRestartRun measure_master_restart(int agents, bool warm) {
  constexpr double kWarmupS = 1.5;
  constexpr double kDeadS = 0.3;
  constexpr double kSettleS = 3.0;

  ctrl::MasterConfig master_config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  master_config.agent_timeout_us = sim::from_ms(50.0);
  master_config.agent_disconnect_timeout_us = sim::from_ms(200.0);
  master_config.request_timeout_us = sim::from_ms(30.0);
  master_config.recovery.enabled = true;
  // Finite admission rate so recovery time scales with the fleet: the
  // cold/warm separation is then the per-agent re-sync round trips on top
  // of the shared pacing floor.
  master_config.recovery.resync_tokens_per_s = 50.0;
  master_config.recovery.resync_burst = 1.0;
  master_config.recovery.resync_retry_after_ms = 20.0;
  master_config.recovery.readiness_quorum = 1.0;
  master_config.recovery.readiness_timeout_us = sim::from_ms(4000.0);
  if (warm) {
    master_config.recovery.checkpoint_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
    master_config.recovery.checkpoint_period_us = sim::from_ms(200.0);
  }
  scenario::Testbed testbed(std::move(master_config));

  for (int i = 0; i < agents; ++i) {
    scenario::EnbSpec spec = bench::basic_enb(static_cast<lte::EnbId>(i + 1), "fleet");
    // A realistic backhaul makes the cold/warm gap visible: a cold re-sync
    // pays a config-fetch round trip per agent that the warm delta skips.
    spec.uplink.delay = sim::from_ms(5.0);
    spec.downlink.delay = sim::from_ms(5.0);
    testbed.add_enb(spec);
  }

  testbed.run_seconds(kWarmupS);
  // Seed a last-known-good policy per agent so the re-push path (and, warm,
  // the checkpointed policy history) is part of what recovery restores.
  for (auto& enb : testbed.enbs()) {
    (void)testbed.master().send_policy(enb->agent_id,
                                       "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n");
  }
  testbed.run_seconds(0.5);

  for (auto& enb : testbed.enbs()) enb->set_control_down(true);
  testbed.run_seconds(kDeadS);
  for (auto& enb : testbed.enbs()) enb->set_control_down(false);
  testbed.master().restart();
  testbed.run_seconds(kSettleS);

  MasterRestartRun run;
  run.agents = agents;
  run.warm = warm;
  run.recovered = !testbed.master().recovering();
  run.checkpoint_loaded = testbed.master().checkpoint_loaded();
  if (run.recovered && testbed.master().last_recovery_duration() > 0) {
    run.time_to_ready_ms =
        static_cast<double>(testbed.master().last_recovery_duration()) / 1000.0;
  }
  run.resyncs_paced = testbed.master().stats().resyncs_paced;
  run.commands_held = testbed.master().stats().commands_held;
  run.policies_repushed = testbed.master().stats().policies_repushed;
  for (auto& enb : testbed.enbs()) {
    const auto* node = testbed.master().rib().find_agent(enb->agent_id);
    if (node != nullptr && node->state == ctrl::SessionState::up) ++run.agents_up;
  }
  return run;
}

struct ShardFailoverRun {
  int shards = 0;
  int agents = 0;
  bool warm = false;
  double failover_ms = -1.0;
  double orphan_window_ms = 0.0;
  std::uint64_t adopted = 0;
  std::uint64_t warm_adoptions = 0;
  std::uint64_t cold_adoptions = 0;
  std::uint64_t pending = 0;
  int agents_up = 0;
};

// Part 3 ("Shard failover", docs/sharded_control.md): kill shard 0 of an
// N-shard coordinator and measure kill -> every orphan back up on its
// adopter. Warm reuses the dead shard's last checkpoint (delta re-sync at
// the adopter); cold pays the full re-sync including the config fetch
// round trip over the 5ms backhaul.
ShardFailoverRun measure_shard_failover(int shards, bool warm) {
  constexpr double kWarmupS = 1.5;
  constexpr double kSettleS = 3.0;

  ctrl::MasterConfig master_config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  master_config.agent_timeout_us = sim::from_ms(50.0);
  master_config.agent_disconnect_timeout_us = sim::from_ms(200.0);
  master_config.request_timeout_us = sim::from_ms(30.0);
  master_config.recovery.enabled = true;
  master_config.recovery.resync_tokens_per_s = 50.0;
  master_config.recovery.resync_burst = 1.0;
  master_config.recovery.resync_retry_after_ms = 20.0;
  master_config.recovery.readiness_quorum = 1.0;
  master_config.recovery.readiness_timeout_us = sim::from_ms(4000.0);
  if (warm) {
    // The testbed turns the template sink into a per-shard factory, so the
    // dead shard's checkpoint is its own, not a shared file.
    master_config.recovery.checkpoint_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
    master_config.recovery.checkpoint_period_us = sim::from_ms(200.0);
  }
  scenario::Testbed testbed(std::move(master_config), static_cast<std::size_t>(shards));

  const int agents = 2 * shards;
  for (int i = 0; i < agents; ++i) {
    scenario::EnbSpec spec = bench::basic_enb(static_cast<lte::EnbId>(i + 1), "fleet");
    spec.shard = static_cast<std::size_t>(i % shards);
    spec.uplink.delay = sim::from_ms(5.0);
    spec.downlink.delay = sim::from_ms(5.0);
    testbed.add_enb(spec);
  }

  testbed.run_seconds(kWarmupS);
  auto& coordinator = testbed.coordinator();
  (void)coordinator.kill_shard(0);
  testbed.run_seconds(kSettleS);

  ShardFailoverRun run;
  run.shards = shards;
  run.agents = agents;
  run.warm = warm;
  const ctrl::FailoverStats failover = coordinator.failover_stats();
  if (failover.failover_duration_us > 0 && failover.failover_pending == 0) {
    run.failover_ms =
        sim::to_seconds(static_cast<sim::TimeUs>(failover.failover_duration_us)) * 1e3;
  }
  run.orphan_window_ms = sim::to_seconds(static_cast<sim::TimeUs>(failover.orphan_window_us)) * 1e3;
  run.adopted = failover.agents_adopted;
  run.warm_adoptions = failover.warm_adoptions;
  run.cold_adoptions = failover.cold_adoptions;
  run.pending = failover.failover_pending;
  for (auto& enb : testbed.enbs()) {
    const auto* node = coordinator.find_agent(enb->agent_id);
    if (node != nullptr && node->state == ctrl::SessionState::up) ++run.agents_up;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  flexran::util::Logger::instance().set_level(flexran::util::LogLevel::error);
  using flexran::bench::print_header;
  print_header(
      "Control-channel recovery: partition heal -> first applied remote DL MAC config");
  std::printf("%14s %22s %16s %10s %10s %10s %10s\n", "partition(ms)", "first decision (ms)",
              "resync (ms)", "retries", "pre Mb/s", "out Mb/s", "post Mb/s");

  std::vector<RecoveryRun> runs;
  for (double partition_ms : {50.0, 150.0, 400.0, 800.0}) {
    RecoveryRun run = measure(partition_ms);
    std::printf("%14.0f %22.2f %16.2f %10llu %10.2f %10.2f %10.2f\n", run.partition_ms,
                run.heal_to_first_remote_decision_ms, run.heal_to_resync_ms,
                static_cast<unsigned long long>(run.requests_retried), run.dl_mbps_pre,
                run.dl_mbps_outage, run.dl_mbps_post);
    runs.push_back(run);
  }

  // Machine-readable result: one JSON object on the final line.
  std::string json = "{";
  json += flexran::bench::json_header("control_channel_recovery",
                                      "control_delay=2ms stats_period=2 fallback=30ttis");
  json += ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RecoveryRun& run = runs[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"partition_ms\":%.0f,\"heal_to_first_remote_decision_ms\":%.3f,"
                  "\"heal_to_resync_ms\":%.3f,\"fallback_activated\":%s,"
                  "\"fallback_recovered\":%s,\"requests_retried\":%llu,"
                  "\"requests_failed\":%llu,\"dl_mbps_pre\":%.3f,\"dl_mbps_outage\":%.3f,"
                  "\"dl_mbps_post\":%.3f}",
                  i == 0 ? "" : ",", run.partition_ms, run.heal_to_first_remote_decision_ms,
                  run.heal_to_resync_ms, run.fallback_activated ? "true" : "false",
                  run.fallback_recovered ? "true" : "false",
                  static_cast<unsigned long long>(run.requests_retried),
                  static_cast<unsigned long long>(run.requests_failed), run.dl_mbps_pre,
                  run.dl_mbps_outage, run.dl_mbps_post);
    json += buffer;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());

  print_header("Master restart: crash -> readiness barrier, cold vs warm checkpoint");
  std::printf("%8s %8s %18s %12s %10s %10s %10s\n", "agents", "mode", "time-to-ready(ms)",
              "paced", "repushed", "held", "up");
  std::vector<MasterRestartRun> restarts;
  for (const int agents : {2, 4, 8}) {
    for (const bool warm : {false, true}) {
      MasterRestartRun run = measure_master_restart(agents, warm);
      std::printf("%8d %8s %18.2f %12llu %10llu %10llu %7d/%d\n", run.agents,
                  run.warm ? "warm" : "cold", run.time_to_ready_ms,
                  static_cast<unsigned long long>(run.resyncs_paced),
                  static_cast<unsigned long long>(run.policies_repushed),
                  static_cast<unsigned long long>(run.commands_held), run.agents_up,
                  run.agents);
      restarts.push_back(run);
    }
  }

  print_header("Shard failover: kill shard 0 -> orphans adopted and back up, cold vs warm");
  std::printf("%8s %8s %8s %18s %10s %10s %10s\n", "shards", "agents", "mode",
              "failover(ms)", "adopted", "warm/cold", "up");
  std::vector<ShardFailoverRun> failovers;
  for (const int shards : {2, 4, 8}) {
    for (const bool warm : {false, true}) {
      ShardFailoverRun run = measure_shard_failover(shards, warm);
      std::printf("%8d %8d %8s %18.2f %10llu %6llu/%-3llu %7d/%d\n", run.shards, run.agents,
                  run.warm ? "warm" : "cold", run.failover_ms,
                  static_cast<unsigned long long>(run.adopted),
                  static_cast<unsigned long long>(run.warm_adoptions),
                  static_cast<unsigned long long>(run.cold_adoptions), run.agents_up,
                  run.agents);
      failovers.push_back(run);
    }
  }

  const char* json_path = argc > 1 ? argv[1] : "BENCH_master_recovery.json";
  std::ofstream out(json_path);
  out << "{" << flexran::bench::json_header("master_restart_recovery",
                                            "resync_tokens_per_s=50 burst=1 quorum=1.0 "
                                            "dead=300ms checkpoint_period=200ms")
      << ",\n\"runs\":[\n";
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    const MasterRestartRun& run = restarts[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"agents\":%d,\"mode\":\"%s\",\"time_to_ready_ms\":%.3f,"
                  "\"recovered\":%s,\"checkpoint_loaded\":%s,\"resyncs_paced\":%llu,"
                  "\"commands_held\":%llu,\"policies_repushed\":%llu,\"agents_up\":%d}%s\n",
                  run.agents, run.warm ? "warm" : "cold", run.time_to_ready_ms,
                  run.recovered ? "true" : "false", run.checkpoint_loaded ? "true" : "false",
                  static_cast<unsigned long long>(run.resyncs_paced),
                  static_cast<unsigned long long>(run.commands_held),
                  static_cast<unsigned long long>(run.policies_repushed),
                  run.agents_up, i + 1 < restarts.size() ? "," : "");
    out << buffer;
  }
  out << "],\n\"failover_runs\":[\n";
  for (std::size_t i = 0; i < failovers.size(); ++i) {
    const ShardFailoverRun& run = failovers[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "  {\"shards\":%d,\"agents\":%d,\"mode\":\"%s\",\"failover_ms\":%.3f,"
                  "\"orphan_window_ms\":%.3f,\"adopted\":%llu,\"warm_adoptions\":%llu,"
                  "\"cold_adoptions\":%llu,\"pending\":%llu,\"agents_up\":%d}%s\n",
                  run.shards, run.agents, run.warm ? "warm" : "cold", run.failover_ms,
                  run.orphan_window_ms, static_cast<unsigned long long>(run.adopted),
                  static_cast<unsigned long long>(run.warm_adoptions),
                  static_cast<unsigned long long>(run.cold_adoptions),
                  static_cast<unsigned long long>(run.pending), run.agents_up,
                  i + 1 < failovers.size() ? "," : "");
    out << buffer;
  }
  out << "]}\n";
  std::printf("\nJSON sweep written to %s\n", json_path);
  return 0;
}
