// Two-tier sharded control plane (docs/sharded_control.md): stable-hash
// agent placement with explicit overrides, command routing to the owning
// shard, the versioned composite snapshot for cross-shard applications,
// per-shard checkpoint and metric identity, and the isolation property --
// one shard's crash leaves the other shards' control loops running.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "apps/mobility_manager.h"
#include "controller/checkpoint_sink.h"
#include "controller/coordinator.h"
#include "net/sim_transport.h"
#include "phy/mobility.h"
#include "scenario/fault_injector.h"
#include "scenario/testbed.h"
#include "verify/invariants.h"

namespace flexran {
namespace {

using ctrl::Coordinator;
using ctrl::SessionState;
using scenario::Testbed;

scenario::EnbSpec spec(lte::EnbId id, std::optional<std::size_t> shard = std::nullopt) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  s.shard = shard;
  return s;
}

stack::UeProfile cqi_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

// ------------------------------------------------------------- assignment --

TEST(ShardAssignment, HashIsDeterministicInRangeAndSpreads) {
  std::set<std::size_t> hit;
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const auto shard = Coordinator::assign_shard(key, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, Coordinator::assign_shard(key, 4)) << "placement must be stable";
    hit.insert(shard);
  }
  // FNV-1a over 64 sequential keys must not collapse onto one shard.
  EXPECT_EQ(hit.size(), 4u);
  // Single shard is always shard 0.
  EXPECT_EQ(Coordinator::assign_shard(12345, 1), 0u);
}

TEST(ShardAssignment, HashPlacementAndExplicitPin) {
  Testbed testbed({}, 4);
  auto& hashed = testbed.add_enb(spec(7));
  auto& pinned = testbed.add_enb(spec(8, 2));

  auto& coordinator = testbed.coordinator();
  ASSERT_EQ(coordinator.shard_count(), 4u);
  EXPECT_EQ(coordinator.shard_of(hashed.agent_id), Coordinator::assign_shard(7, 4));
  EXPECT_EQ(coordinator.shard_of(pinned.agent_id), 2u);
  // Agent ids are allocated globally: unique across shards.
  EXPECT_NE(hashed.agent_id, pinned.agent_id);
  EXPECT_EQ(coordinator.agent_count(), 2u);
}

// ---------------------------------------------------------------- routing --

TEST(ShardRouting, CommandsReachTheOwningShardOnly) {
  Testbed testbed(scenario::per_tti_master_config(), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  testbed.run_ttis(50);  // sessions up, configs fetched

  auto& coordinator = testbed.coordinator();
  // Each shard's RIB holds exactly its own agent.
  EXPECT_NE(coordinator.shard(0).rib().find_agent(enb0.agent_id), nullptr);
  EXPECT_EQ(coordinator.shard(0).rib().find_agent(enb1.agent_id), nullptr);
  EXPECT_NE(coordinator.shard(1).rib().find_agent(enb1.agent_id), nullptr);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id), nullptr);

  // A command sent through the Coordinator lands on the owning shard's
  // transport: shard 1's tx accounting moves, shard 0's stays untouched.
  const auto tx0_before = coordinator.shard(0).tx_accounting(enb0.agent_id).total_messages();
  proto::DrxConfig drx;
  drx.rnti = 70;
  drx.cycle_ttis = 40;
  ASSERT_TRUE(coordinator.send_drx_config(enb1.agent_id, drx).ok());
  testbed.run_ttis(10);
  coordinator.quiesce();
  EXPECT_GT(coordinator.shard(1).tx_accounting(enb1.agent_id).total_messages(), 0u);
  EXPECT_EQ(coordinator.shard(1).tx_accounting(enb0.agent_id).total_messages(), 0u);
  EXPECT_EQ(coordinator.shard(0).tx_accounting(enb0.agent_id).total_messages(), tx0_before);
  // The routed per-agent accessor agrees with the owning shard's view.
  EXPECT_EQ(coordinator.tx_accounting(enb1.agent_id).total_messages(),
            coordinator.shard(1).tx_accounting(enb1.agent_id).total_messages());
}

TEST(ShardRouting, UnknownAgentCommandsAreRejected) {
  Testbed testbed({}, 2);
  testbed.add_enb(spec(1, 0));

  auto& coordinator = testbed.coordinator();
  proto::HandoverCommand handover;
  handover.rnti = 70;
  const auto status = coordinator.send_handover(999, handover);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::not_found);
  EXPECT_NE(status.error().message.find("not assigned"), std::string::npos)
      << status.error().message;
  proto::StatsRequest request;
  EXPECT_FALSE(coordinator.request_stats(999, request).ok());
  EXPECT_FALSE(coordinator.send_policy(999, "mac: {}\n").ok());
  EXPECT_FALSE(coordinator.shard_of(999).has_value());
  EXPECT_EQ(coordinator.find_agent(999), nullptr);
}

// ------------------------------------------------------ composite snapshot --

TEST(CompositeSnapshot, UnionsShardsAndVersionIsSumOfShardVersions) {
  Testbed testbed(scenario::per_tti_master_config(), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  testbed.run_ttis(50);

  auto& coordinator = testbed.coordinator();
  const auto composite = coordinator.rib_snapshot();
  EXPECT_NE(composite->find_agent(enb0.agent_id), nullptr);
  EXPECT_NE(composite->find_agent(enb1.agent_id), nullptr);
  EXPECT_EQ(composite->agents().size(), 2u);
  EXPECT_EQ(composite->version(), coordinator.shard(0).rib_snapshot()->version() +
                                      coordinator.shard(1).rib_snapshot()->version());
  // Per-shard apps keep their shard-local view: one agent each.
  EXPECT_EQ(coordinator.shard(0).rib_snapshot()->agents().size(), 1u);
  EXPECT_EQ(coordinator.shard(1).rib_snapshot()->agents().size(), 1u);
}

TEST(CompositeSnapshot, CachedUntilAShardPublishesANewVersion) {
  sim::Simulator sim;
  ctrl::CoordinatorConfig config;
  config.shards = 3;
  Coordinator coordinator(sim, config);

  const auto first = coordinator.rib_snapshot();
  const auto second = coordinator.rib_snapshot();
  EXPECT_EQ(first.get(), second.get()) << "idle fleet must reuse the cached composite";
  EXPECT_EQ(coordinator.composites_built(), 1u);
}

// ------------------------------------------------------ cross-shard mobility --

TEST(ShardedMobility, GlobalMobilityManagerCommandsCrossShardHandover) {
  // The serving and the target cell live on DIFFERENT shards; the mobility
  // manager runs as a global app on the composite view, so it sees both
  // cells and its handover command is routed to the serving shard.
  Testbed testbed(scenario::per_tti_master_config(), 2);
  auto s1 = spec(1, 0);
  s1.use_radio_env = true;
  auto s2 = spec(2, 1);
  s2.use_radio_env = true;
  testbed.add_enb(s1);
  testbed.add_enb(s2);
  testbed.enable_x2();

  apps::MobilityManagerConfig config;
  config.hysteresis_db = 3.0;
  config.evaluations_to_trigger = 3;
  config.period_cycles = 20;
  auto* app = static_cast<apps::MobilityManagerApp*>(
      testbed.coordinator().add_app(std::make_unique<apps::MobilityManagerApp>(config)));

  auto track = std::make_shared<phy::MobilityTrack>(
      std::vector<phy::CellSite>{{1, phy::kMacroTxPowerDbm, 0.0, 0.0},
                                 {2, phy::kMacroTxPowerDbm, 1.0, 0.0}},
      std::vector<phy::MobilityTrack::Waypoint>{{0, 0.3, 0.0},
                                                {sim::from_seconds(6), 0.8, 0.0}});
  stack::UeProfile profile;
  profile.mobility = track;
  profile.attach_after_ttis = 10;
  const auto ue_id = testbed.add_ue(0, std::move(profile));

  testbed.run_seconds(7.0);
  EXPECT_GE(app->handovers_commanded(), 1u);
  auto location = testbed.locate_ue(ue_id);
  ASSERT_TRUE(location.has_value());
  EXPECT_EQ(location->enb_index, 1u) << "UE must end up at the cell owned by the other shard";
}

// -------------------------------------------------------------- isolation --

TEST(ShardIsolation, OneShardCrashLeavesOtherShardsRunning) {
  auto config = scenario::per_tti_master_config();
  config.recovery.enabled = true;
  config.agent_timeout_us = sim::from_ms(50.0);
  config.agent_disconnect_timeout_us = sim::from_ms(200.0);
  Testbed testbed(config, 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  testbed.add_ue(0, cqi_ue(15));
  testbed.add_ue(1, cqi_ue(15));
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  ASSERT_EQ(coordinator.shard(0).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  ASSERT_EQ(coordinator.shard(1).rib().find_agent(enb1.agent_id)->state, SessionState::up);

  // Crash shard 0 for 300 ms through the chaos harness. Shard 1's agent
  // links must stay untouched.
  scenario::FaultInjector injector(testbed);
  scenario::FaultEvent crash;
  crash.at_s = 0.6;
  crash.kind = scenario::FaultKind::master_crash;
  crash.shard = 0;
  crash.duration_s = 0.3;
  injector.schedule(crash);

  const auto shard1_cycles_before = coordinator.shard(1).task_manager().cycles_run();
  const auto shard1_updates_before = coordinator.shard(1).stats().updates_applied;
  testbed.run_seconds(0.5);  // t = 1.0s: inside + just past the dead window

  // The crashed shard restarted; its peer never stopped cycling or
  // applying RIB updates, and its agent never left `up`.
  EXPECT_EQ(coordinator.shard(0).stats().master_restarts, 1u);
  EXPECT_EQ(coordinator.shard(1).stats().master_restarts, 0u);
  EXPECT_GT(coordinator.shard(1).task_manager().cycles_run(), shard1_cycles_before + 400);
  EXPECT_GT(coordinator.shard(1).stats().updates_applied, shard1_updates_before);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb1.agent_id)->state, SessionState::up);

  testbed.run_seconds(1.0);  // let shard 0's fleet re-sync
  EXPECT_FALSE(coordinator.any_recovering());
  EXPECT_EQ(coordinator.shard(0).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.stats().master_restarts, 1u);
}

// ------------------------------------------------------------- checkpoints --

TEST(ShardedCheckpoints, ShardPathsAreDistinctUnderOneDirectory) {
  EXPECT_EQ(ctrl::FileCheckpointSink::shard_path("ckpt", 0), "ckpt/shard-0.ckpt");
  EXPECT_EQ(ctrl::FileCheckpointSink::shard_path("ckpt/", 3), "ckpt/shard-3.ckpt");
  EXPECT_NE(ctrl::FileCheckpointSink::shard_path("ckpt", 1),
            ctrl::FileCheckpointSink::shard_path("ckpt", 2));
}

TEST(ShardedCheckpoints, SinkFactoryGivesEveryShardItsOwnSink) {
  auto config = scenario::per_tti_master_config();
  config.recovery.enabled = true;
  config.recovery.checkpoint_period_us = sim::from_ms(100.0);

  std::vector<std::shared_ptr<ctrl::MemoryCheckpointSink>> sinks(2);
  // Build the testbed's coordinator by hand so the factory can be wired.
  sim::Simulator sim;
  ctrl::CoordinatorConfig coordinator_config;
  coordinator_config.shards = 2;
  coordinator_config.shard = config;
  coordinator_config.checkpoint_sink_factory = [&sinks](std::size_t shard) {
    sinks[shard] = std::make_shared<ctrl::MemoryCheckpointSink>();
    return sinks[shard];
  };
  Coordinator coordinator(sim, coordinator_config);

  auto link0 = net::make_sim_transport_pair(sim);
  auto link1 = net::make_sim_transport_pair(sim);
  const auto id0 = coordinator.add_agent(*link0.a, 1);
  const auto id1 = coordinator.add_agent(*link1.a, 2);
  EXPECT_NE(id0, id1);
  ASSERT_TRUE(coordinator.shard(0).save_checkpoint().ok());
  ASSERT_TRUE(coordinator.shard(1).save_checkpoint().ok());
  ASSERT_NE(sinks[0], nullptr);
  ASSERT_NE(sinks[1], nullptr);
  EXPECT_NE(sinks[0], sinks[1]);
  EXPECT_EQ(sinks[0]->saves(), 1u);
  EXPECT_EQ(sinks[1]->saves(), 1u);
}

// ---------------------------------------------- failover (shard death) --

ctrl::MasterConfig failover_config(bool warm_checkpoints) {
  auto config = scenario::per_tti_master_config();
  config.recovery.enabled = true;
  config.recovery.resync_tokens_per_s = 50.0;
  config.recovery.resync_burst = 2.0;
  config.recovery.resync_retry_after_ms = 20.0;
  config.agent_timeout_us = sim::from_ms(50.0);
  config.agent_disconnect_timeout_us = sim::from_ms(200.0);
  if (warm_checkpoints) {
    // The Testbed clones this into one MemoryCheckpointSink per shard.
    config.recovery.checkpoint_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
    config.recovery.checkpoint_period_us = sim::from_ms(100.0);
  }
  return config;
}

TEST(ShardFailover, KillShardWarmAdoptionResumesService) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 0));
  auto& enb2 = testbed.add_enb(spec(3, 1));
  testbed.add_ue(0, cqi_ue(15));
  testbed.run_seconds(0.5);  // sessions up, several checkpoints saved

  auto& coordinator = testbed.coordinator();
  ASSERT_EQ(coordinator.shard(0).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  ASSERT_GT(coordinator.shard(0).stats().checkpoints_saved, 0u);

  const auto adopted = coordinator.kill_shard(0);
  EXPECT_EQ(adopted, 2u);
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::failed);
  EXPECT_EQ(coordinator.failover_stats().shards_failed, 1u);
  EXPECT_EQ(coordinator.failover_stats().agents_adopted, 2u);
  // The dead shard's checkpoint covered both agents: every adoption is a
  // warm handoff seeding the adopter for a delta re-sync.
  EXPECT_EQ(coordinator.failover_stats().warm_adoptions, 2u);
  EXPECT_EQ(coordinator.failover_stats().cold_adoptions, 0u);
  EXPECT_EQ(coordinator.failover_stats().agents_orphaned, 0u);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);
  EXPECT_EQ(coordinator.shard_of(enb1.agent_id), 1u);
  // Assignment and composite move atomically: the adoptees are visible
  // under the survivor before any further cycle runs.
  const auto composite = coordinator.rib_snapshot();
  EXPECT_NE(composite->find_agent(enb0.agent_id), nullptr);
  EXPECT_NE(composite->find_agent(enb1.agent_id), nullptr);
  EXPECT_EQ(composite->agents().size(), 3u);

  testbed.run_seconds(1.5);  // paced delta re-sync on the adopter
  auto& survivor = coordinator.shard(1);
  EXPECT_EQ(survivor.rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb2.agent_id)->state, SessionState::up);
  // Blast radius: adoption is not a restart -- the survivor's own agents
  // never flapped and its restart counter never moved.
  EXPECT_EQ(survivor.stats().master_restarts, 0u);
  EXPECT_FALSE(coordinator.any_recovering());
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);
  EXPECT_GT(coordinator.failover_stats().failover_duration_us, 0);

  // Commands flow to the adoptees through the normal routed surface.
  proto::DrxConfig drx;
  drx.rnti = 70;
  drx.cycle_ttis = 40;
  EXPECT_TRUE(coordinator.send_drx_config(enb0.agent_id, drx).ok());

  // Killing an already-failed shard is a no-op.
  EXPECT_EQ(coordinator.kill_shard(0), 0u);
  EXPECT_EQ(coordinator.failover_stats().shards_failed, 1u);
}

TEST(ShardFailover, ColdAdoptionWithoutCheckpointStillRecovers) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/false), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  testbed.run_seconds(0.4);

  auto& coordinator = testbed.coordinator();
  EXPECT_EQ(coordinator.kill_shard(0), 1u);
  // No checkpoint sink: the adoption is cold -- full config re-fetch.
  EXPECT_EQ(coordinator.failover_stats().cold_adoptions, 1u);
  EXPECT_EQ(coordinator.failover_stats().warm_adoptions, 0u);

  testbed.run_seconds(1.5);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).stats().master_restarts, 0u);
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);
}

TEST(ShardFailover, ThrowingShardIsFailedAndItsFleetAdopted) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/false), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.run_seconds(0.4);

  auto& coordinator = testbed.coordinator();
  coordinator.shard(0).set_cycle_fault(ctrl::ShardCore::CycleFault::throwing);
  testbed.run_ttis(2);  // the first coordinator cycle catches the throw
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::failed);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);

  testbed.run_seconds(1.5);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).stats().master_restarts, 0u);
}

TEST(ShardFailover, StallWatchdogFailsASilentShard) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/false), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.coordinator().set_shard_stall_cycles(50);
  testbed.run_seconds(0.4);

  auto& coordinator = testbed.coordinator();
  coordinator.shard(0).set_cycle_fault(ctrl::ShardCore::CycleFault::stalled);
  testbed.run_ttis(40);  // below the threshold: suspected, not yet failed
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::alive);
  testbed.run_ttis(20);  // crosses 50 consecutive silent cycles
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::failed);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);
  // The orphan window is measured from stall onset, not from the verdict.
  EXPECT_GT(coordinator.failover_stats().orphan_window_us, 0);

  testbed.run_seconds(1.5);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id)->state, SessionState::up);
}

TEST(ShardFailover, NewAgentsNeverLandOnAFailedShard) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/false), 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.run_seconds(0.3);

  auto& coordinator = testbed.coordinator();
  coordinator.kill_shard(0);
  // An explicit pin to the dead shard is overridden by the re-hash.
  auto& late = testbed.add_enb(spec(9, 0));
  EXPECT_EQ(coordinator.shard_of(late.agent_id), 1u);
}

// ------------------------------------------------- drain (planned migration) --

TEST(ShardDrain, PacedMigrationEndsDrained) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 0));
  auto& enb2 = testbed.add_enb(spec(3, 1));
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  ASSERT_TRUE(coordinator.drain_shard(0).ok());
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::draining);
  // One drain at a time.
  EXPECT_FALSE(coordinator.drain_shard(1).ok());

  testbed.run_ttis(1);
  EXPECT_EQ(coordinator.failover_stats().agents_drained, 1u) << "one agent per coordinator cycle";
  testbed.run_ttis(3);
  EXPECT_EQ(coordinator.failover_stats().agents_drained, 2u);
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::drained);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);
  EXPECT_EQ(coordinator.shard_of(enb1.agent_id), 1u);
  // A live export accompanied every move: planned migration is always warm.
  EXPECT_EQ(coordinator.failover_stats().warm_adoptions, 2u);
  EXPECT_EQ(coordinator.failover_stats().shards_failed, 0u);

  testbed.run_seconds(1.5);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb2.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).stats().master_restarts, 0u);
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);

  // A drained shard cannot be drained again (and is skipped by placement).
  EXPECT_FALSE(coordinator.drain_shard(0).ok());
}

TEST(ShardDrain, RefusedWithoutASurvivor) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/false), 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.run_seconds(0.3);

  auto& coordinator = testbed.coordinator();
  coordinator.kill_shard(1);
  const auto status = coordinator.drain_shard(0);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::Error::Code::conflict);
}

// -------------------------------------------- composite cache invalidation --

TEST(CompositeSnapshot, RemoveAgentInvalidatesTheCachedComposite) {
  Testbed testbed(scenario::per_tti_master_config(), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  testbed.run_ttis(50);

  auto& coordinator = testbed.coordinator();
  const auto before = coordinator.rib_snapshot();
  ASSERT_NE(before->find_agent(enb0.agent_id), nullptr);

  // Remove between cycles: the cached union must not keep serving the
  // removed agent until the owning shard happens to publish again.
  coordinator.remove_agent(enb0.agent_id);
  const auto after = coordinator.rib_snapshot();
  EXPECT_EQ(after->find_agent(enb0.agent_id), nullptr)
      << "stale composite served after remove_agent";
  EXPECT_NE(after->find_agent(enb1.agent_id), nullptr);
  EXPECT_EQ(coordinator.agent_count(), 1u);
}

/// Ids in iteration order; EXPECTs every composite entry to be the owning
/// shard's own node.
std::vector<ctrl::AgentId> composite_ids(const Coordinator& coordinator,
                                         const ctrl::RibSnapshot& composite) {
  std::vector<ctrl::AgentId> ids;
  for (const auto& [id, node] : composite.agents()) {
    const auto shard = coordinator.shard_of(id);
    EXPECT_TRUE(shard.has_value()) << "agent " << id;
    if (shard.has_value()) {
      EXPECT_EQ(node.get(), coordinator.shard(*shard).rib_snapshot()->find_agent(id));
    }
    ids.push_back(id);
  }
  return ids;
}

TEST(CompositeSnapshot, StatsOnlyPublishSharesShardEntriesAndOwnerTable) {
  ctrl::Rib ribs[2];
  for (ctrl::AgentId id = 1; id <= 200; ++id) ribs[id % 2].add_agent(id);
  std::vector<std::shared_ptr<const ctrl::RibSnapshot>> parts;
  for (int s = 0; s < 2; ++s) parts.push_back(ribs[s].publish());
  const auto first = ctrl::RibSnapshot::compose(parts);

  ribs[0].agent(10).last_subframe = 5;
  ribs[1].agent(11).last_subframe = 5;
  for (int s = 0; s < 2; ++s) parts[s] = ribs[s].publish();
  const auto second = ctrl::RibSnapshot::compose(parts, first.get());

  EXPECT_EQ(second->version(), parts[0]->version() + parts[1]->version());
  EXPECT_EQ(second->agent_count(), 200u);
  EXPECT_EQ(second->membership_version(), first->membership_version())
      << "no shard's agent set moved: the owner table is reused";
  EXPECT_EQ(second->find_agent(10)->last_subframe, 5);
  ctrl::AgentId expected = 1;
  for (const auto& [id, node] : second->agents()) {
    EXPECT_EQ(id, expected++);
    EXPECT_EQ(node.get(), parts[id % 2]->find_agent(id)) << "agent " << id;
  }
  EXPECT_EQ(expected, 201u);
  EXPECT_EQ(second->find_agent(0), nullptr);
  EXPECT_EQ(second->find_agent(201), nullptr);
  EXPECT_EQ(second->find_agent(1u << 20), nullptr);
}

TEST(CompositeSnapshot, DuplicateIdKeepsTheFirstShardsNode) {
  ctrl::Rib ribs[2];
  ribs[0].add_agent(5);
  ribs[1].add_agent(5);
  ribs[1].add_agent(6);
  std::vector<std::shared_ptr<const ctrl::RibSnapshot>> parts;
  for (int s = 0; s < 2; ++s) parts.push_back(ribs[s].publish());
  const auto composite = ctrl::RibSnapshot::compose(parts);
  EXPECT_EQ(composite->agent_count(), 2u);
  EXPECT_EQ(composite->find_agent(5), parts[0]->find_agent(5));
  EXPECT_EQ(composite->find_agent(6), parts[1]->find_agent(6));
}

TEST(CompositeSnapshot, MembershipChangesListEveryAgentOnce) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 3);
  std::vector<ctrl::AgentId> all;
  for (lte::EnbId id = 1; id <= 6; ++id) {
    all.push_back(testbed.add_enb(spec(id, (id - 1) % 3)).agent_id);
  }
  testbed.run_seconds(0.3);
  auto& coordinator = testbed.coordinator();
  EXPECT_EQ(composite_ids(coordinator, *coordinator.rib_snapshot()), all);

  // Agents move between shards one per cycle while shard 0 drains.
  ASSERT_TRUE(coordinator.drain_shard(0).ok());
  testbed.run_ttis(1);
  ASSERT_EQ(coordinator.failover_stats().agents_drained, 1u);
  EXPECT_EQ(composite_ids(coordinator, *coordinator.rib_snapshot()), all) << "mid-drain";
  testbed.run_ttis(3);
  ASSERT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::drained);
  EXPECT_EQ(composite_ids(coordinator, *coordinator.rib_snapshot()), all) << "drained";

  // A failed shard's fleet shows up once, under its adopter.
  coordinator.kill_shard(1);
  const auto composite = coordinator.rib_snapshot();
  EXPECT_EQ(composite_ids(coordinator, *composite), all) << "after failover";
  EXPECT_EQ(composite->agent_count(), all.size());
  testbed.run_seconds(0.5);
  EXPECT_EQ(composite_ids(coordinator, *coordinator.rib_snapshot()), all) << "re-synced";
}

// ------------------------------------------- wrong-shard checkpoint gate --

TEST(ShardedCheckpoints, WrongShardCheckpointIsRejectedOnRestore) {
  // Misconfiguration the shard stamp exists to catch: two shards sharing
  // one sink. Shard 1 must refuse to resurrect shard 0's agent set.
  auto shared_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
  sim::Simulator sim;
  ctrl::CoordinatorConfig coordinator_config;
  coordinator_config.shards = 2;
  coordinator_config.shard = scenario::per_tti_master_config();
  coordinator_config.shard.recovery.enabled = true;
  coordinator_config.checkpoint_sink_factory = [&shared_sink](std::size_t) {
    return shared_sink;
  };
  Coordinator coordinator(sim, coordinator_config);

  auto link0 = net::make_sim_transport_pair(sim);
  auto link1 = net::make_sim_transport_pair(sim);
  coordinator.add_agent(*link0.a, 1);
  coordinator.add_agent(*link1.a, 2);
  ASSERT_TRUE(coordinator.shard(0).save_checkpoint().ok());

  coordinator.shard(1).restart();
  EXPECT_EQ(coordinator.shard(1).stats().checkpoints_rejected, 1u);
  EXPECT_FALSE(coordinator.shard(1).checkpoint_loaded());

  // The shard that wrote it restores it fine.
  coordinator.shard(0).restart();
  EXPECT_EQ(coordinator.shard(0).stats().checkpoints_rejected, 0u);
  EXPECT_TRUE(coordinator.shard(0).checkpoint_loaded());
}

// ----------------------------------------------------------- observability --

TEST(ShardedObs, SharedRegistryKeepsPerShardMetricIdentities) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(config, 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.run_ttis(50);

  // One registry for the whole process; every shard's series carry its
  // `shard` label, so identities never collide.
  const auto text = testbed.coordinator().metrics().prometheus_text();
  EXPECT_NE(text.find("cycles_run{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("cycles_run{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(text.find("updates_applied{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("updates_applied{shard=\"1\"}"), std::string::npos);

  // A single-shard testbed keeps the unlabeled (seed) names.
  auto single_config = scenario::per_tti_master_config();
  single_config.obs.enabled = true;
  Testbed single(single_config);
  single.add_enb(spec(1));
  single.run_ttis(10);
  const auto single_text = single.coordinator().metrics().prometheus_text();
  EXPECT_NE(single_text.find("cycles_run "), std::string::npos);
  EXPECT_EQ(single_text.find("cycles_run{"), std::string::npos);
}

// The decoder anomaly count is process-wide, so it is one series however
// many shards register it -- summing it over `shard` must not multiply it.
TEST(ShardedObs, ProcessWideDecodeAnomaliesExportOnce) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(config, 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.run_ttis(10);

  const auto text = testbed.coordinator().metrics().prometheus_text();
  std::size_t series = 0;
  for (auto at = text.find("proto_decode_anomalies"); at != std::string::npos;
       at = text.find("proto_decode_anomalies", at + 1)) {
    ++series;
  }
  EXPECT_EQ(series, 1u);
  EXPECT_NE(text.find("proto_decode_anomalies "), std::string::npos);
}

// One table drives both the per-shard series and the fleet fold: every
// exported counter reads its shard's ShardStats field, and the
// Coordinator's sum matches field by field.
TEST(ShardedObs, StatsTableDrivesProbesAndFleetSums) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(config, 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 1));
  testbed.add_enb(spec(3, 1));
  testbed.run_ttis(200);

  auto& coordinator = testbed.coordinator();
  const auto text = coordinator.metrics().prometheus_text();
  const ctrl::ShardStats fleet = coordinator.stats();
  const ctrl::ShardStats per_shard[] = {coordinator.shard(0).stats(),
                                        coordinator.shard(1).stats()};
  EXPECT_GT(fleet.updates_applied, per_shard[0].updates_applied);
  for (const auto& f : ctrl::kShardStatFields) {
    EXPECT_EQ(fleet.*f.field, per_shard[0].*f.field + per_shard[1].*f.field);
    if (f.name == nullptr) continue;
    for (int shard = 0; shard < 2; ++shard) {
      const std::string line = std::string(f.name) + "{shard=\"" + std::to_string(shard) +
                               "\"} " + std::to_string(per_shard[shard].*f.field) + "\n";
      EXPECT_NE(text.find(line), std::string::npos) << line;
    }
  }
  for (std::size_t cls = 0; cls < net::kNumTrafficClasses; ++cls) {
    for (const auto& f : ctrl::kIngestClassFields) {
      EXPECT_EQ(fleet.ingest[cls].*f.field,
                per_shard[0].ingest[cls].*f.field + per_shard[1].ingest[cls].*f.field);
    }
  }
}

// Per-agent series follow the agent: each shard's collector writes only the
// agents it holds, so a migrated agent's series leave the old shard and
// start over under the adopter's `shard` label.
std::map<std::string, double> scrape(const Coordinator& coordinator) {
  std::map<std::string, double> series;
  std::istringstream lines(coordinator.metrics().prometheus_text());
  for (std::string line; std::getline(lines, line);) {
    const auto space = line.rfind(' ');
    series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return series;
}

std::string label(const std::string& identity, const std::string& key) {
  const auto at = identity.find(key + "=\"");
  if (at == std::string::npos) return "";
  const auto begin = at + key.size() + 2;
  return identity.substr(begin, identity.find('"', begin) - begin);
}

bool per_agent_counter(const std::string& identity) {
  return identity.rfind("signaling_", 0) == 0 ||
         identity.rfind("control_latency_us_count{", 0) == 0 ||
         identity.rfind("control_latency_us_sum{", 0) == 0;
}

void expect_series_follow_agents(const Coordinator& coordinator,
                                 const std::map<std::string, double>& before,
                                 const std::map<std::string, double>& after,
                                 std::size_t emptied) {
  std::map<std::string, std::set<std::string>> shards_per_agent;
  for (const auto& [identity, value] : after) {
    const std::string agent = label(identity, "agent");
    if (agent.empty()) continue;
    const std::string shard = label(identity, "shard");
    EXPECT_NE(shard, std::to_string(emptied)) << identity;
    if (identity.rfind("signaling_", 0) == 0 || identity.rfind("control_latency_us", 0) == 0) {
      shards_per_agent[agent].insert(shard);
      const auto owner = coordinator.shard_of(static_cast<ctrl::AgentId>(std::stoul(agent)));
      ASSERT_TRUE(owner.has_value()) << identity;
      EXPECT_EQ(shard, std::to_string(*owner)) << identity;
    }
  }
  EXPECT_EQ(shards_per_agent.size(), coordinator.agent_count());
  for (const auto& [agent, shards] : shards_per_agent) {
    EXPECT_EQ(shards.size(), 1u) << "agent " << agent;
  }
  for (const auto& [identity, value] : before) {
    const auto it = after.find(identity);
    if (it == after.end() || !per_agent_counter(identity)) continue;
    EXPECT_GE(it->second, value) << identity;
  }
}

TEST(ShardedObs, AgentSeriesLeaveADrainedShard) {
  auto config = failover_config(/*warm_checkpoints=*/true);
  config.obs.enabled = true;
  Testbed testbed(config, 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 0));
  testbed.add_enb(spec(3, 1));
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  const auto before = scrape(coordinator);
  ASSERT_TRUE(coordinator.drain_shard(0).ok());
  testbed.run_ttis(4);
  ASSERT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::drained);
  testbed.run_ttis(300);
  expect_series_follow_agents(coordinator, before, scrape(coordinator), 0);
}

TEST(ShardedObs, AgentSeriesLeaveAKilledShard) {
  auto config = failover_config(/*warm_checkpoints=*/true);
  config.obs.enabled = true;
  Testbed testbed(config, 2);
  testbed.add_enb(spec(1, 0));
  testbed.add_enb(spec(2, 0));
  testbed.add_enb(spec(3, 1));
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  const auto before = scrape(coordinator);
  ASSERT_EQ(coordinator.kill_shard(0), 2u);
  testbed.run_ttis(300);
  expect_series_follow_agents(coordinator, before, scrape(coordinator), 0);
}

// ----------------------------------------- failover edge cases (monitored) --

// Renders the monitor's findings so a regression fails with the actual
// violated invariants, not just a counter mismatch.
std::string violations_text(const verify::InvariantMonitor& monitor) {
  std::string text;
  for (const auto& line : monitor.violation_summaries()) text += line + "\n";
  return text;
}

// A shard dies mid-drain: the planned migration is abandoned, the drain
// queue cleared, and every agent still on the victim is re-homed through
// the ordinary failover path -- without the monitor seeing a double owner
// or an unrecoverable orphan at any cycle.
TEST(ShardFailover, KillDuringActiveDrainAdoptsTheRest) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 0));
  auto& enb2 = testbed.add_enb(spec(3, 1));
  verify::InvariantMonitor monitor(testbed.coordinator(), verify::Mode::log);
  monitor.install();
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  ASSERT_TRUE(coordinator.drain_shard(0).ok());
  testbed.run_ttis(1);
  ASSERT_EQ(coordinator.failover_stats().agents_drained, 1u);  // mid-drain: one moved, one queued

  coordinator.kill_shard(0);
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::failed);
  // The queued remainder went through adoption, not the drain (every
  // re-home -- drained or failed-over -- counts in agents_adopted).
  EXPECT_EQ(coordinator.failover_stats().agents_drained, 1u);
  EXPECT_EQ(coordinator.failover_stats().agents_adopted, 2u);
  EXPECT_EQ(coordinator.failover_stats().agents_orphaned, 0u);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);
  EXPECT_EQ(coordinator.shard_of(enb1.agent_id), 1u);

  testbed.run_seconds(1.5);
  auto& survivor = coordinator.shard(1);
  EXPECT_EQ(survivor.rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb2.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);
  // After the abandoned drain, a fresh drain elsewhere is legal again.
  EXPECT_FALSE(coordinator.drain_shard(0).ok());  // dead shards stay refused
  EXPECT_EQ(monitor.violations_total(), 0u) << violations_text(monitor);
}

// A shard is killed while it is itself still recovering from a restart:
// its agents' epochs baseline-shift twice in quick succession (restart,
// then adoption), which is exactly the window the monitor's per-span
// epoch baselines must tolerate without false positives -- and the
// adoption must still converge.
TEST(ShardFailover, KillWhileVictimStillRecovering) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  verify::InvariantMonitor monitor(testbed.coordinator(), verify::Mode::log);
  monitor.install();
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  coordinator.shard(0).restart();
  ASSERT_TRUE(coordinator.shard(0).recovering());
  testbed.run_ttis(5);  // re-sync barely started

  coordinator.kill_shard(0);
  EXPECT_EQ(coordinator.shard_health(0), Coordinator::ShardHealth::failed);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 1u);

  testbed.run_seconds(1.5);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(coordinator.shard(1).rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_FALSE(coordinator.any_recovering());
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);
  EXPECT_EQ(monitor.violations_total(), 0u) << violations_text(monitor);
}

// Two kills back to back leave a single survivor owning the whole fleet;
// the second failover adopts agents that were themselves adopted moments
// earlier (incarnation floors must keep climbing, never reset).
TEST(ShardFailover, BackToBackKillsLeaveOneSurvivor) {
  Testbed testbed(failover_config(/*warm_checkpoints=*/true), 3);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  auto& enb2 = testbed.add_enb(spec(3, 2));
  verify::InvariantMonitor monitor(testbed.coordinator(), verify::Mode::log);
  monitor.install();
  testbed.run_seconds(0.5);

  auto& coordinator = testbed.coordinator();
  coordinator.kill_shard(0);
  coordinator.kill_shard(1);
  EXPECT_EQ(coordinator.failover_stats().shards_failed, 2u);
  EXPECT_EQ(coordinator.failover_stats().agents_orphaned, 0u);
  EXPECT_EQ(coordinator.shard_of(enb0.agent_id), 2u);
  EXPECT_EQ(coordinator.shard_of(enb1.agent_id), 2u);
  EXPECT_EQ(coordinator.shard_of(enb2.agent_id), 2u);

  testbed.run_seconds(2.0);
  auto& survivor = coordinator.shard(2);
  EXPECT_EQ(survivor.rib().find_agent(enb0.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb1.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.rib().find_agent(enb2.agent_id)->state, SessionState::up);
  EXPECT_EQ(survivor.stats().master_restarts, 0u);
  EXPECT_EQ(coordinator.failover_stats().failover_pending, 0u);
  EXPECT_EQ(monitor.violations_total(), 0u) << violations_text(monitor);
}

// A removed agent keeps reporting every TTI over its still-open link. The
// reports must not bring the agent back: not into the shard's RIB, its
// snapshot or the composite, and so not as a RIB entry the assignment map
// does not know. Nor are they received at all: the shard applies at most
// the frames already in flight at the removal, and queues none.
TEST(CompositeSnapshot, RemovedAgentStaysGoneWhileItsReportsArrive) {
  Testbed testbed(scenario::per_tti_master_config(), 2);
  auto& enb0 = testbed.add_enb(spec(1, 0));
  auto& enb1 = testbed.add_enb(spec(2, 1));
  verify::InvariantMonitor monitor(testbed.coordinator(), verify::Mode::log);
  monitor.install();
  testbed.run_ttis(50);

  auto& coordinator = testbed.coordinator();
  ASSERT_EQ(coordinator.shard_of(enb0.agent_id), 0u);
  const auto& shard = coordinator.shard(0);
  const std::uint64_t applied_before = shard.stats().updates_applied;
  const std::uint64_t in_flight =
      enb0.agent_side->messages_sent() - enb0.master_side->messages_received();
  coordinator.remove_agent(enb0.agent_id);
  testbed.run_ttis(200);
  EXPECT_LE(shard.stats().updates_applied - applied_before, in_flight);
  EXPECT_EQ(shard.pending_updates(), 0u);
  EXPECT_EQ(shard.rib().find_agent(enb0.agent_id), nullptr);
  EXPECT_EQ(shard.rib_snapshot()->find_agent(enb0.agent_id), nullptr);
  EXPECT_EQ(coordinator.rib_snapshot()->find_agent(enb0.agent_id), nullptr);
  EXPECT_NE(coordinator.rib_snapshot()->find_agent(enb1.agent_id), nullptr);
  EXPECT_EQ(monitor.violations_total(), 0u) << violations_text(monitor);
}

}  // namespace
}  // namespace flexran
