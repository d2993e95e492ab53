// Control-channel fault tolerance (docs/fault_tolerance.md): session
// epochs and fencing, master-side disconnect detection and re-sync,
// request timeout/retry, agent reconnect with backoff, fallback
// re-promotion, and the end-to-end chaos run.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/remote_scheduler.h"
#include "controller/checkpoint_sink.h"
#include "net/sim_transport.h"
#include "proto/checkpoint.h"
#include "scenario/fault_injector.h"
#include "scenario/testbed.h"

namespace flexran {
namespace {

using ctrl::SessionState;

// Records lifecycle events delivered through the event notification
// service, as a fault-aware controller application would consume them.
class LifecycleRecorder final : public ctrl::App {
 public:
  std::string_view name() const override { return "lifecycle_recorder"; }
  void on_event(const ctrl::Event& event, ctrl::NorthboundApi&) override {
    switch (event.notification.event) {
      case proto::EventType::agent_disconnected:
        disconnected.push_back(event.agent);
        break;
      case proto::EventType::agent_reconnected:
        reconnected.push_back(event.agent);
        break;
      case proto::EventType::request_timeout:
        timed_out_xids.push_back(event.notification.xid);
        break;
      default:
        break;
    }
  }
  std::vector<ctrl::AgentId> disconnected;
  std::vector<ctrl::AgentId> reconnected;
  std::vector<std::uint32_t> timed_out_xids;
};

scenario::EnbSpec basic_spec(lte::EnbId id = 1) {
  scenario::EnbSpec spec;
  spec.enb.enb_id = id;
  spec.enb.cells[0].cell_id = id;
  spec.agent.name = "ft-" + std::to_string(id);
  return spec;
}

stack::UeProfile fixed_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

std::vector<std::uint8_t> make_stale_stats_reply(std::uint32_t epoch, std::int64_t subframe) {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = subframe;
  proto::WireEncoder enc;
  reply.encode_body(enc);
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_reply;
  envelope.xid = 0;
  envelope.epoch = epoch;
  envelope.body = enc.take();
  return envelope.encode();
}

// ----------------------------------------------------------- session epochs --

TEST(SessionLifecycle, ReconnectBumpsEpochAndMasterResyncs) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  EXPECT_EQ(enb.agent->session_epoch(), 1u);
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->epoch, 1u);
  EXPECT_EQ(node->state, SessionState::up);
  EXPECT_GT(enb.agent->reports().active_registrations(), 0u);

  enb.crash_agent();
  EXPECT_FALSE(enb.agent->connected());
  // Session-scoped agent state dies with the session.
  EXPECT_EQ(enb.agent->reports().active_registrations(), 0u);
  EXPECT_EQ(enb.agent->queued_decisions(), 0u);

  testbed.run_ttis(20);
  enb.restart_agent();
  testbed.run_ttis(50);

  EXPECT_TRUE(enb.agent->connected());
  EXPECT_EQ(enb.agent->session_epoch(), 2u);
  node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->epoch, 2u);
  EXPECT_EQ(node->reconnects, 1u);
  EXPECT_EQ(node->state, SessionState::up);
  EXPECT_FALSE(node->is_stale());
  // The master reinstalled the default stats request on re-sync.
  EXPECT_GT(enb.agent->reports().active_registrations(), 0u);
}

TEST(SessionLifecycle, StaleEpochUpdatesAreFencedFromRib) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(30);

  enb.crash_agent();
  enb.restart_agent();
  testbed.run_ttis(30);
  ASSERT_EQ(enb.agent->session_epoch(), 2u);

  // A straggler from the pre-restart session: old epoch, absurd subframe.
  const std::int64_t sentinel = 77'777'777;
  ASSERT_TRUE(enb.agent_side->send(make_stale_stats_reply(/*epoch=*/1, sentinel)).ok());
  const auto fenced_before = testbed.master().stats().fenced_updates;
  testbed.run_ttis(20);

  EXPECT_EQ(testbed.master().stats().fenced_updates, fenced_before + 1);
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_LT(node->last_subframe, sentinel);

  // Current-epoch traffic still lands.
  EXPECT_EQ(node->state, SessionState::up);
}

TEST(SessionLifecycle, AgentFencesStaleMasterMessages) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  enb.crash_agent();
  enb.restart_agent();
  testbed.run_ttis(5);
  ASSERT_EQ(enb.agent->session_epoch(), 2u);

  // A master command addressed to the previous incarnation of the agent.
  proto::StatsRequest request;
  request.request_id = 99;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 1;
  request.flags = proto::stats_flags::kAll;
  proto::WireEncoder enc;
  request.encode_body(enc);
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_request;
  envelope.xid = 4242;
  envelope.epoch = 1;  // stale
  envelope.body = enc.take();
  const auto fenced_before = enb.agent->fenced_messages();
  ASSERT_TRUE(enb.master_side->send(envelope.encode()).ok());
  testbed.run_ttis(10);

  EXPECT_EQ(enb.agent->fenced_messages(), fenced_before + 1);
}

TEST(SessionLifecycle, CorruptedHelloIsRecoveredByHelloRetry) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  // The restart hello arrives corrupted at the master; nothing else from
  // the new session is in flight, so only the agent's hello retry (and the
  // epoch fence on the master's old-epoch sends) can recover the session.
  enb.master_side->corrupt_next(1);
  enb.crash_agent();
  enb.restart_agent();
  const auto decode_errors_before = testbed.master().rx_decode_errors();
  testbed.run_ttis(5);
  EXPECT_EQ(testbed.master().rx_decode_errors(), decode_errors_before + 1);

  testbed.run_ttis(agent::kHelloRetryTtis + 50);
  EXPECT_GE(enb.agent->hello_retries(), 1u);
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->epoch, 2u);
  EXPECT_EQ(node->state, SessionState::up);
}

TEST(SessionLifecycle, DuplicatedFramesAreAbsorbedWithoutEpochChurn) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  const auto epoch_before = node->epoch;

  // Re-deliver the next 8 frames in each direction verbatim (the
  // `duplicate` fault kind). Every copy carries an already-seen xid and
  // the live epoch, so both endpoints must absorb them as no-ops: no
  // session churn, no reconnect, no decode errors. Steady state is mostly
  // uplink (per-TTI stats), so drive downlink commands to give the
  // agent-side endpoint frames to re-deliver.
  enb.master_side->duplicate_next(8);
  enb.agent_side->duplicate_next(8);
  const auto decode_errors_before = testbed.master().rx_decode_errors();
  for (int i = 0; i < 8; ++i) {
    proto::DrxConfig drx;
    drx.rnti = 70;
    drx.cycle_ttis = 40;
    drx.on_duration_ttis = static_cast<std::uint16_t>(4 + i);
    ASSERT_TRUE(testbed.master().send_drx_config(enb.agent_id, drx).ok());
    testbed.run_ttis(3);
  }
  testbed.run_ttis(76);

  EXPECT_GE(enb.master_side->frames_duplicated(), 8u);
  EXPECT_GE(enb.agent_side->frames_duplicated(), 8u);
  EXPECT_EQ(testbed.master().rx_decode_errors(), decode_errors_before);
  EXPECT_TRUE(enb.agent->connected());
  EXPECT_EQ(enb.agent->session_epoch(), epoch_before);
  node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->epoch, epoch_before);
  EXPECT_EQ(node->reconnects, 0u);
  EXPECT_EQ(node->state, SessionState::up);
  EXPECT_FALSE(node->is_stale());
}

TEST(SessionLifecycle, ReconnectBacksOffWhilePartitioned) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(20);

  enb.set_control_down(true);
  enb.crash_agent();
  enb.restart_agent();
  testbed.run_ttis(300);
  // The reconnect provider refuses while the channel is down; backoff
  // keeps attempts bounded (20ms initial, doubling to the 1s cap).
  EXPECT_GE(enb.agent->reconnect_attempts(), 3u);
  EXPECT_LE(enb.agent->reconnect_attempts(), 12u);
  EXPECT_FALSE(enb.agent->connected());

  enb.set_control_down(false);
  testbed.run_ttis(1200);
  EXPECT_TRUE(enb.agent->connected());
  EXPECT_EQ(enb.agent->session_epoch(), 2u);
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->state, SessionState::up);
}

// ------------------------------------------------- disconnect detection --

TEST(SessionLifecycle, SilenceWalksUpStaleDownAndBackWithEvents) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.agent_timeout_us = sim::from_ms(30);
  config.agent_disconnect_timeout_us = sim::from_ms(100);
  scenario::Testbed testbed(std::move(config));
  auto* recorder = static_cast<LifecycleRecorder*>(
      testbed.master().add_app(std::make_unique<LifecycleRecorder>()));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(20);

  enb.set_control_down(true);
  testbed.run_ttis(150);  // past the 100 ms disconnect timeout
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->state, SessionState::down);
  EXPECT_TRUE(node->is_stale());
  ASSERT_EQ(recorder->disconnected.size(), 1u);
  EXPECT_EQ(recorder->disconnected[0], enb.agent_id);
  EXPECT_TRUE(recorder->reconnected.empty());

  enb.set_control_down(false);
  testbed.run_ttis(60);
  node = testbed.master().rib().find_agent(enb.agent_id);
  EXPECT_EQ(node->state, SessionState::up);
  EXPECT_FALSE(node->is_stale());
  ASSERT_EQ(recorder->reconnected.size(), 1u);
  EXPECT_EQ(recorder->reconnected[0], enb.agent_id);
  // Same session resumed: the partition did not force a new epoch.
  EXPECT_EQ(node->epoch, 1u);
  EXPECT_EQ(enb.agent->session_epoch(), 1u);
}

// ------------------------------------------------------ request tracking --

TEST(RequestTracking, TimedOutRequestIsRetriedAndCompletes) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.agent_timeout_us = sim::from_ms(30);
  config.agent_disconnect_timeout_us = sim::from_ms(80);
  config.request_timeout_us = sim::from_ms(20);
  scenario::Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);
  ASSERT_EQ(testbed.master().stats().requests_retried, 0u);

  // Partition long enough to go down, then corrupt the first re-sync
  // requests after the heal: their replies never come and the timeout /
  // retry path must recover them.
  enb.set_control_down(true);
  testbed.run_ttis(120);
  enb.agent_side->corrupt_next(2);  // agent_side receives master->agent
  enb.set_control_down(false);
  testbed.run_ttis(200);

  EXPECT_GE(testbed.master().stats().requests_retried, 1u);
  EXPECT_EQ(testbed.master().stats().requests_failed, 0u);
  EXPECT_EQ(testbed.master().stats().inflight_requests, 0u);
  const auto* node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->state, SessionState::up);
}

TEST(RequestTracking, ExhaustedRetriesSurfaceRequestTimeoutEvent) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.request_timeout_us = sim::from_ms(10);
  scenario::Testbed testbed(std::move(config));
  auto* recorder = static_cast<LifecycleRecorder*>(
      testbed.master().add_app(std::make_unique<LifecycleRecorder>()));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(20);

  enb.set_control_down(true);
  proto::StatsRequest request;
  request.request_id = 55;
  request.mode = proto::ReportMode::one_off;
  request.flags = proto::stats_flags::kAll;
  ASSERT_TRUE(testbed.master().request_stats(enb.agent_id, request).ok());
  EXPECT_EQ(testbed.master().stats().inflight_requests, 1u);

  testbed.run_ttis(100);
  EXPECT_EQ(testbed.master().stats().inflight_requests, 0u);
  EXPECT_EQ(testbed.master().stats().requests_retried,
            static_cast<std::uint64_t>(ctrl::kRequestMaxRetries));
  EXPECT_EQ(testbed.master().stats().requests_failed, 1u);
  ASSERT_EQ(recorder->timed_out_xids.size(), 1u);
  EXPECT_NE(recorder->timed_out_xids[0], 0u);
  enb.set_control_down(false);
}

TEST(RequestTracking, RetriesKeepOriginalSignalingCategory) {
  // Regression for the retry-path accounting bug: sweep_requests used to
  // re-categorize the stored wire image with an EMPTY body
  // (the category of `request.type` with an empty body), which both mis-buckets
  // body-dependent message types (see Accounting.CategorizeIsBodyDependent
  // ForEvents in proto_test) and re-derives the traffic class the resend
  // uses. The category and class are now stored with the pending request
  // at enqueue time; every retry must land in the same bucket as the
  // original send, with the same framed byte size.
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.auto_configure = false;       // keep the config bucket quiet
  config.echo_period_cycles = 0;       // no periodic management traffic
  config.request_timeout_us = sim::from_ms(10);
  scenario::Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(20);
  const auto& tx = testbed.master().tx_accounting(enb.agent_id);
  // The default stats request sent at hello is the bucket's only message so
  // far; everything below counts on top of it.
  ASSERT_EQ(tx.messages(proto::MessageCategory::stats), 1u);
  const std::uint64_t stats_bytes_before = tx.bytes(proto::MessageCategory::stats);

  // Partition, then issue a tracked stats request: the original send plus
  // every retry fires into the void.
  enb.set_control_down(true);
  proto::StatsRequest request;
  request.request_id = 77;
  request.mode = proto::ReportMode::one_off;
  request.flags = proto::stats_flags::kAll;
  ASSERT_TRUE(testbed.master().request_stats(enb.agent_id, request).ok());
  testbed.run_ttis(2);
  testbed.master().quiesce();
  const std::uint64_t first_bytes = tx.bytes(proto::MessageCategory::stats) - stats_bytes_before;
  ASSERT_EQ(tx.messages(proto::MessageCategory::stats), 2u);
  ASSERT_GT(first_bytes, 0u);

  testbed.run_ttis(100);
  constexpr std::uint64_t kSends = 1 + ctrl::kRequestMaxRetries;
  EXPECT_EQ(testbed.master().stats().requests_retried, kSends - 1);
  // All retries accounted in the stats bucket (not re-derived into another
  // category), each with the identical wire + frame-header size.
  EXPECT_EQ(tx.messages(proto::MessageCategory::stats), 1 + kSends);
  EXPECT_EQ(tx.bytes(proto::MessageCategory::stats), stats_bytes_before + kSends * first_bytes);
  // Nothing leaked into the other buckets.
  EXPECT_EQ(tx.messages(proto::MessageCategory::commands), 0u);
  EXPECT_EQ(tx.messages(proto::MessageCategory::delegation), 0u);
  enb.set_control_down(false);
}

TEST(RequestTracking, RemoveAgentPurgesQueuesAndInflight) {
  // Raw master without a ticker: received updates pile up in pending_ and
  // queued events stay queued, so remove_agent's purge is observable.
  sim::Simulator sim;
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.request_timeout_us = sim::from_ms(50);
  ctrl::ShardCore master(sim, config);
  auto* recorder =
      static_cast<LifecycleRecorder*>(master.add_app(std::make_unique<LifecycleRecorder>()));
  auto link_a = net::make_sim_transport_pair(sim);
  auto link_b = net::make_sim_transport_pair(sim);
  const auto first = master.add_agent(*link_a.a);
  const auto second = master.add_agent(*link_b.a);

  ASSERT_TRUE(link_a.b->send(make_stale_stats_reply(/*epoch=*/0, 100)).ok());
  ASSERT_TRUE(link_a.b->send(make_stale_stats_reply(/*epoch=*/0, 101)).ok());
  ASSERT_TRUE(link_b.b->send(make_stale_stats_reply(/*epoch=*/0, 100)).ok());
  sim.run();
  EXPECT_EQ(master.pending_updates(), 3u);

  proto::StatsRequest request;
  request.request_id = 7;
  request.mode = proto::ReportMode::one_off;
  request.flags = proto::stats_flags::kAll;
  ASSERT_TRUE(master.request_stats(first, request).ok());
  ASSERT_TRUE(master.request_stats(second, request).ok());
  EXPECT_EQ(master.stats().inflight_requests, 2u);

  // The transport dies: the agent's session ends. Its in-flight request
  // fails and its queued updates are purged, but the AGENT_DISCONNECTED
  // event is now sitting in the event queue.
  link_a.a->inject_disconnect(util::Error::transport_failure("peer reset"));
  EXPECT_EQ(master.pending_updates(), 1u);
  EXPECT_EQ(master.stats().inflight_requests, 1u);
  const auto failed = master.stats().requests_failed;
  EXPECT_EQ(failed, 1u);

  // More state accumulates for the doomed agent before the removal.
  ASSERT_TRUE(link_a.b->send(make_stale_stats_reply(/*epoch=*/0, 102)).ok());
  sim.run();
  ASSERT_TRUE(master.request_stats(first, request).ok());
  EXPECT_EQ(master.pending_updates(), 2u);
  EXPECT_EQ(master.stats().inflight_requests, 2u);

  master.remove_agent(first);
  EXPECT_EQ(master.pending_updates(), 1u);    // only the other agent's update
  EXPECT_EQ(master.stats().inflight_requests, 1u);  // only the other agent's request
  // Administrative removal drops the request without reporting a failure.
  EXPECT_EQ(master.stats().requests_failed, failed);

  master.run_cycle();
  // The queued lifecycle event was purged with the agent: apps never see
  // events for an agent that no longer exists.
  EXPECT_TRUE(recorder->disconnected.empty());
}

// ------------------------------------------------------ fallback two-way --

TEST(Fallback, RemoteSchedulerRepromotedAfterOutage) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  scenario::Testbed testbed(std::move(config));
  apps::RemoteSchedulerConfig app_config;
  app_config.schedule_ahead_sf = 4;
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(app_config));

  scenario::EnbSpec spec = basic_spec();
  spec.agent.dl_scheduler = "remote";
  spec.agent.remote_fallback_ttis = 20;
  spec.agent.fallback_scheduler = "local_rr";
  auto& enb = testbed.add_enb(spec);
  const auto rnti = testbed.add_ue(0, fixed_ue(12));
  // Keep the DL queue non-empty: the remote scheduler only sends decisions
  // for UEs with data, and those per-TTI decisions are the master contact
  // that keeps the agent from falling back.
  auto* dp = enb.data_plane.get();
  testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
      (void)testbed.epc().downlink(rnti, 60'000);
    }
  });
  testbed.run_ttis(50);
  ASSERT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "remote");

  enb.set_control_down(true);
  testbed.run_ttis(60);
  EXPECT_EQ(enb.agent->fallback_activations(), 1u);
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");

  enb.set_control_down(false);
  testbed.run_ttis(60);
  // Master messages resumed: the DL scheduler is handed back to remote
  // control without any operator intervention.
  EXPECT_EQ(enb.agent->fallback_recoveries(), 1u);
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "remote");
}

// ------------------------------------------------------------- chaos run --

TEST(Chaos, ScriptedFaultsEndFullyRecovered) {
  ctrl::MasterConfig config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  config.agent_timeout_us = sim::from_ms(50);
  config.agent_disconnect_timeout_us = sim::from_ms(200);
  config.request_timeout_us = sim::from_ms(30);
  scenario::Testbed testbed(std::move(config));
  auto* recorder = static_cast<LifecycleRecorder*>(
      testbed.master().add_app(std::make_unique<LifecycleRecorder>()));
  apps::RemoteSchedulerConfig app_config;
  app_config.schedule_ahead_sf = 8;
  testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(app_config));

  for (lte::EnbId id = 1; id <= 2; ++id) {
    scenario::EnbSpec spec = basic_spec(id);
    spec.agent.dl_scheduler = "remote";
    spec.agent.remote_fallback_ttis = 30;
    spec.agent.fallback_scheduler = "local_rr";
    spec.uplink.delay = sim::from_ms(2);
    spec.downlink.delay = sim::from_ms(2);
    testbed.add_enb(spec);
  }
  const auto ue_a = testbed.add_ue(0, fixed_ue(15));
  const auto ue_b = testbed.add_ue(1, fixed_ue(12, /*attach_after=*/2));
  auto saturate = [&](std::size_t index, lte::Rnti rnti) {
    auto* dp = testbed.enb(index).data_plane.get();
    testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
      const auto* ue = dp->ue(rnti);
      if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
        (void)testbed.epc().downlink(rnti, 60'000);
      }
    });
  };
  saturate(0, ue_a);
  saturate(1, ue_b);

  scenario::FaultInjector injector(testbed);
  injector.schedule_all({
      {.at_s = 0.5, .kind = scenario::FaultKind::partition, .enb = 0, .duration_s = 0.4},
      {.at_s = 0.89, .kind = scenario::FaultKind::corrupt, .enb = 0, .count = 2},
      {.at_s = 1.2, .kind = scenario::FaultKind::delay_spike, .enb = 1, .duration_s = 0.3,
       .delay_ms = 20.0},
      {.at_s = 1.8, .kind = scenario::FaultKind::flap, .enb = 0, .count = 3, .period_s = 0.05},
      {.at_s = 2.5, .kind = scenario::FaultKind::crash, .enb = 1, .duration_s = 0.25},
  });

  testbed.run_seconds(3.5);  // final heal is the crash restart at ~2.75s

  // After the crashed agent restarts, throw a pre-restart-epoch straggler
  // at the master; it must not mutate the RIB.
  auto& crashed = testbed.enb(1);
  ASSERT_EQ(crashed.agent->session_epoch(), 2u);
  const std::int64_t sentinel = 88'888'888;
  const auto fenced_before = testbed.master().stats().fenced_updates;
  ASSERT_TRUE(crashed.agent_side->send(make_stale_stats_reply(/*epoch=*/1, sentinel)).ok());

  const std::uint64_t bytes_a_before =
      testbed.metrics().total_bytes(1, ue_a, lte::Direction::downlink);
  const std::uint64_t bytes_b_before =
      testbed.metrics().total_bytes(2, ue_b, lte::Direction::downlink);
  testbed.run_seconds(1.0);

  // 1. Every agent ends re-synced, not stale.
  for (auto& enb : testbed.enbs()) {
    const auto* node = testbed.master().rib().find_agent(enb->agent_id);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->state, SessionState::up) << "agent " << enb->agent_id;
    EXPECT_FALSE(node->is_stale());
    EXPECT_EQ(node->epoch, enb->agent->session_epoch());
    EXPECT_TRUE(enb->agent->connected());
  }

  // 2. No pre-restart-epoch message mutated the RIB.
  EXPECT_EQ(testbed.master().stats().fenced_updates, fenced_before + 1);
  EXPECT_LT(testbed.master().rib().find_agent(crashed.agent_id)->last_subframe, sentinel);

  // 3. Every timed-out request was retried to completion or reported
  //    failed; nothing is left dangling.
  EXPECT_EQ(testbed.master().stats().inflight_requests, 0u);
  EXPECT_EQ(recorder->timed_out_xids.size(), testbed.master().stats().requests_failed);

  // 4. Lifecycle events reached the apps.
  EXPECT_GE(recorder->reconnected.size(), 1u);

  // 5. UE throughput recovered after the final heal: both cells moved
  //    real traffic in the last simulated second (remote scheduling at
  //    CQI >= 12 sustains well over 4 Mb/s; a dead control plane would
  //    strand the remote-scheduled cells near zero).
  const double mbps_a = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, ue_a, lte::Direction::downlink) - bytes_a_before, 1.0);
  const double mbps_b = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(2, ue_b, lte::Direction::downlink) - bytes_b_before, 1.0);
  EXPECT_GT(mbps_a, 4.0);
  EXPECT_GT(mbps_b, 4.0);
}

// ------------------------------------------------- master crash recovery --

ctrl::MasterConfig recovery_config(double tokens_per_s,
                                   std::shared_ptr<ctrl::CheckpointSink> sink = nullptr,
                                   sim::TimeUs checkpoint_period = 0) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.agent_timeout_us = sim::from_ms(30);
  config.agent_disconnect_timeout_us = sim::from_ms(100);
  config.recovery.enabled = true;
  config.recovery.resync_tokens_per_s = tokens_per_s;
  config.recovery.resync_burst = 1.0;
  config.recovery.resync_retry_after_ms = 20.0;
  config.recovery.readiness_quorum = 1.0;
  config.recovery.readiness_timeout_us = sim::from_ms(3000);
  config.recovery.checkpoint_sink = std::move(sink);
  config.recovery.checkpoint_period_us = checkpoint_period;
  return config;
}

std::vector<std::uint8_t> make_master_frame(std::uint32_t master_epoch, std::uint32_t xid) {
  proto::StatsRequest request;
  request.request_id = 4000 + xid;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 1;
  proto::WireEncoder enc;
  request.encode_body(enc);
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_request;
  envelope.xid = xid;
  envelope.master_epoch = master_epoch;
  envelope.body = enc.take();
  return envelope.encode();
}

// The session state machine, walked transition by transition (the table in
// docs/fault_tolerance.md): up -> stale (silence), stale -> down
// (disconnect timeout), down -> resyncing (traffic heals), resyncing -> up
// (config reply); then a master restart resets every session to down and
// paced admission holds the overflow agent in `resyncing` until a token
// frees up.
TEST(MasterRecovery, SessionStateMachineWalksTheTable) {
  // One token every 200 ms: with burst 1, the second re-sync must wait.
  scenario::Testbed testbed(recovery_config(/*tokens_per_s=*/5.0));
  auto& enb_a = testbed.add_enb(basic_spec(1));
  auto& enb_b = testbed.add_enb(basic_spec(2));
  testbed.run_ttis(400);  // both sessions up; the startup burst has refilled

  auto state_of = [&](scenario::Testbed::Enb& enb) {
    const auto* node = testbed.master().rib().find_agent(enb.agent_id);
    return node == nullptr ? SessionState::down : node->state;
  };
  ASSERT_EQ(state_of(enb_a), SessionState::up);
  ASSERT_EQ(state_of(enb_b), SessionState::up);

  // up -> stale: silence past agent_timeout (30 ms).
  enb_a.set_control_down(true);
  testbed.run_ttis(60);
  EXPECT_EQ(state_of(enb_a), SessionState::stale);
  EXPECT_EQ(state_of(enb_b), SessionState::up);

  // stale -> down: silence past the disconnect timeout (100 ms).
  testbed.run_ttis(100);
  EXPECT_EQ(state_of(enb_a), SessionState::down);

  // down -> resyncing -> up: the heal delivers agent traffic, the master
  // re-syncs the session (one agent, one token: admitted immediately).
  enb_a.set_control_down(false);
  testbed.run_ttis(300);
  EXPECT_EQ(state_of(enb_a), SessionState::up);

  // Master restart: every session resets to a down husk, then both agents
  // offer re-sync against the new incarnation. Burst 1 admits one agent;
  // the other is deferred and parks in `resyncing` until the next token
  // (~200 ms out).
  ASSERT_EQ(testbed.master().incarnation(), 1u);
  testbed.master().restart();
  EXPECT_EQ(testbed.master().incarnation(), 2u);
  EXPECT_TRUE(testbed.master().recovering());
  EXPECT_EQ(state_of(enb_a), SessionState::down);
  EXPECT_EQ(state_of(enb_b), SessionState::down);

  testbed.run_ttis(60);
  const bool a_waiting = state_of(enb_a) == SessionState::resyncing;
  const bool b_waiting = state_of(enb_b) == SessionState::resyncing;
  EXPECT_TRUE(a_waiting || b_waiting) << "one re-sync should be deferred";
  EXPECT_GE(testbed.master().stats().resyncs_paced, 1u);

  testbed.run_ttis(500);
  EXPECT_EQ(state_of(enb_a), SessionState::up);
  EXPECT_EQ(state_of(enb_b), SessionState::up);
  EXPECT_FALSE(testbed.master().recovering());
  EXPECT_EQ(testbed.master().agents_resynced(), 2u);
  EXPECT_GT(testbed.master().last_recovery_duration(), 0);
  // Both agents adopted the new incarnation and saw exactly one restart.
  EXPECT_EQ(enb_a.agent->master_incarnation(), 2u);
  EXPECT_EQ(enb_b.agent->master_restarts_seen(), 1u);
}

// Incarnation fencing, the agent side: a frame stamped with the dead
// master's incarnation must be dropped without touching agent state, while
// a higher incarnation triggers adoption and a re-hello.
TEST(MasterRecovery, AgentFencesOldIncarnationAndAdoptsNewer) {
  scenario::Testbed testbed(recovery_config(/*tokens_per_s=*/1000.0));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(100);
  ASSERT_EQ(enb.agent->master_incarnation(), 1u);

  testbed.master().restart();
  testbed.run_ttis(300);
  ASSERT_EQ(enb.agent->master_incarnation(), 2u);
  ASSERT_EQ(enb.agent->master_restarts_seen(), 1u);

  // A command the dead incarnation had in flight: fenced, not applied.
  const auto fenced_before = enb.agent->fenced_incarnation_messages();
  const auto registrations_before = enb.agent->reports().active_registrations();
  ASSERT_TRUE(enb.master_side->send(make_master_frame(/*master_epoch=*/1, /*xid=*/7)).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(enb.agent->fenced_incarnation_messages(), fenced_before + 1);
  EXPECT_EQ(enb.agent->reports().active_registrations(), registrations_before);

  // The same frame from the live incarnation is applied normally.
  ASSERT_TRUE(enb.master_side->send(make_master_frame(/*master_epoch=*/2, /*xid=*/8)).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(enb.agent->reports().active_registrations(), registrations_before + 1);
}

// Deterministic per-agent reconnect jitter: two agents crashing at the
// same instant must not retry in lockstep (a fleet reconnecting after a
// master outage would otherwise stampede in synchronized waves).
TEST(MasterRecovery, ReconnectJitterDesynchronizesAgents) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb_a = testbed.add_enb(basic_spec(1));
  auto& enb_b = testbed.add_enb(basic_spec(2));
  testbed.run_ttis(20);

  // The jitter scale is a pure function of agent identity: stable across
  // calls, different across agents.
  const auto backoff = sim::from_ms(20);
  EXPECT_EQ(enb_a.agent->jittered_backoff(backoff), enb_a.agent->jittered_backoff(backoff));
  EXPECT_NE(enb_a.agent->jittered_backoff(backoff), enb_b.agent->jittered_backoff(backoff));
  // Each delay is scaled by a factor in [1, 1 + kReconnectJitter).
  for (const auto* enb : {&enb_a, &enb_b}) {
    EXPECT_GE(enb->agent->jittered_backoff(backoff), backoff);
    EXPECT_LT(static_cast<double>(enb->agent->jittered_backoff(backoff)),
              static_cast<double>(backoff) * (1.0 + agent::kReconnectJitter));
  }

  // End to end: both agents crash and reconnect against a dead channel at
  // the same instant; their retry timelines must diverge.
  for (auto* enb : {&enb_a, &enb_b}) {
    enb->set_control_down(true);
    enb->crash_agent();
    enb->restart_agent();
  }
  testbed.run_ttis(400);
  const auto& times_a = enb_a.agent->reconnect_attempt_times();
  const auto& times_b = enb_b.agent->reconnect_attempt_times();
  ASSERT_GE(times_a.size(), 3u);
  ASSERT_GE(times_b.size(), 3u);
  EXPECT_NE(times_a, times_b);

  for (auto* enb : {&enb_a, &enb_b}) enb->set_control_down(false);
  testbed.run_ttis(1200);
  EXPECT_TRUE(enb_a.agent->connected());
  EXPECT_TRUE(enb_b.agent->connected());
}

// Cold restart end to end: volatile state is gone, the fleet re-syncs
// against the new incarnation, and the command gate refuses app commands
// aimed at agents that have not re-synced yet.
TEST(MasterRecovery, ColdRestartRebuildsAndHoldsCommands) {
  scenario::Testbed testbed(recovery_config(/*tokens_per_s=*/1000.0));
  auto& enb_a = testbed.add_enb(basic_spec(1));
  auto& enb_b = testbed.add_enb(basic_spec(2));
  testbed.run_ttis(100);

  testbed.master().restart();
  EXPECT_EQ(testbed.master().stats().master_restarts, 1u);
  EXPECT_TRUE(testbed.master().recovering());
  EXPECT_FALSE(testbed.master().checkpoint_loaded());

  // A command against a not-yet-re-synced agent is held, not delivered.
  const auto held_before = testbed.master().stats().commands_held;
  proto::DlMacConfig decision;
  decision.cell_id = 1;
  decision.target_subframe = 1;
  auto status = testbed.master().send_dl_mac_config(enb_a.agent_id, decision);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(testbed.master().stats().commands_held, held_before + 1);

  testbed.run_ttis(500);
  EXPECT_FALSE(testbed.master().recovering());
  EXPECT_EQ(testbed.master().agents_resynced(), 2u);
  for (auto* enb : {&enb_a, &enb_b}) {
    const auto* node = testbed.master().rib().find_agent(enb->agent_id);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->state, SessionState::up);
    // The cold rebuild recovered the full configuration from re-sync.
    EXPECT_FALSE(node->cells.empty());
    EXPECT_FALSE(node->name.empty());
  }
  // Commands flow again once recovery is over.
  EXPECT_TRUE(testbed.master().send_dl_mac_config(enb_a.agent_id, decision).ok());
}

// Warm restart: the checkpoint restores agent configs and policy history,
// the fleet takes the delta re-sync path, and last-known-good policies are
// re-pushed as each agent comes back.
TEST(MasterRecovery, WarmRestartLoadsCheckpointAndRepushesPolicies) {
  auto sink = std::make_shared<ctrl::MemoryCheckpointSink>();
  scenario::Testbed testbed(
      recovery_config(/*tokens_per_s=*/1000.0, sink, sim::from_ms(100)));
  auto& enb_a = testbed.add_enb(basic_spec(1));
  auto& enb_b = testbed.add_enb(basic_spec(2));
  testbed.run_ttis(150);
  for (auto* enb : {&enb_a, &enb_b}) {
    ASSERT_TRUE(testbed.master()
                    .send_policy(enb->agent_id,
                                 "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n")
                    .ok());
  }
  testbed.run_ttis(200);  // policies applied + at least one checkpoint after
  ASSERT_GT(testbed.master().stats().checkpoints_saved, 0u);
  ASSERT_TRUE(sink->has_checkpoint());

  testbed.master().restart();
  EXPECT_TRUE(testbed.master().checkpoint_loaded());
  // The checkpoint seeded the RIB before any agent spoke: names, configs
  // and epochs survive the crash.
  for (auto* enb : {&enb_a, &enb_b}) {
    const auto* node = testbed.master().rib().find_agent(enb->agent_id);
    ASSERT_NE(node, nullptr);
    EXPECT_FALSE(node->cells.empty());
    EXPECT_EQ(node->epoch, enb->agent->session_epoch());
  }

  testbed.run_ttis(400);
  EXPECT_FALSE(testbed.master().recovering());
  EXPECT_EQ(testbed.master().agents_resynced(), 2u);
  EXPECT_EQ(testbed.master().stats().policies_repushed, 2u);
  for (auto* enb : {&enb_a, &enb_b}) {
    const auto* node = testbed.master().rib().find_agent(enb->agent_id);
    EXPECT_EQ(node->state, SessionState::up);
  }
  // Durable incarnation floor: even a sink written at incarnation N must
  // produce a restart at > N.
  EXPECT_GE(testbed.master().incarnation(), 2u);
}

// Torn-write regression: an injected mid-write failure leaves a torn .tmp
// behind, but the atomic tmp+rename protocol must keep the last complete
// checkpoint loadable -- a failed save never clobbers durable state.
TEST(MasterRecovery, TornCheckpointWriteNeverClobbersLastGood) {
  const std::string path = ::testing::TempDir() + "flexran_ckpt_torn.bin";
  std::remove(path.c_str());
  ctrl::FileCheckpointSink sink(path);
  const std::vector<std::uint8_t> good = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(sink.save(good).ok());

  sink.fail_next_saves(1);
  const std::vector<std::uint8_t> newer = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  const auto failed = sink.save(newer);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(sink.saves_failed(), 1u);
  // The torn write landed in the .tmp only; the published file is intact.
  auto loaded = sink.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, good);

  // The retry (no injection left) publishes the new bytes atomically.
  ASSERT_TRUE(sink.save(newer).ok());
  loaded = sink.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, newer);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// Write-failure hardening in the master's checkpoint loop: failed saves
// are counted, retried with backoff (sooner than the normal period), and
// the sink ends up with a good checkpoint once the fault clears.
TEST(MasterRecovery, CheckpointWriteFailuresRetryWithBackoff) {
  auto sink = std::make_shared<ctrl::MemoryCheckpointSink>();
  scenario::Testbed testbed(
      recovery_config(/*tokens_per_s=*/1000.0, sink, sim::from_ms(100)));
  testbed.add_enb(basic_spec(1));
  sink->fail_next_saves(2);
  testbed.run_ttis(400);

  EXPECT_EQ(testbed.master().stats().checkpoint_write_failures, 2u);
  EXPECT_EQ(sink->saves_failed(), 2u);
  // Both failures were retried inside the run: a good checkpoint exists
  // and regular-period checkpointing resumed after the recovery.
  ASSERT_TRUE(sink->has_checkpoint());
  EXPECT_GT(testbed.master().stats().checkpoints_saved, 0u);
  // 400 ttis / 100 ms period = ~4 regular slots; the 10-20 ms backoff
  // retries squeeze the two failed attempts in without eating a slot.
  EXPECT_GE(testbed.master().stats().checkpoints_saved +
                testbed.master().stats().checkpoint_write_failures,
            4u);
}

// The checkpoint codec round-trips durable master state byte-for-byte
// through a file sink (the deployment path; Memory sinks cover the tests).
TEST(MasterRecovery, FileCheckpointSinkRoundTrips) {
  const std::string path = ::testing::TempDir() + "flexran_ckpt_test.bin";
  ctrl::FileCheckpointSink sink(path);
  proto::MasterCheckpoint checkpoint;
  checkpoint.incarnation = 7;
  checkpoint.saved_at_us = 123456;
  proto::CheckpointAgent agent;
  agent.id = 1;
  agent.name = "macro-a";
  agent.epoch = 3;
  agent.policy_history.push_back("mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n");
  checkpoint.agents.push_back(agent);

  const auto bytes = checkpoint.encode();
  ASSERT_TRUE(sink.save(bytes).ok());
  auto loaded = sink.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bytes);
  auto decoded = proto::MasterCheckpoint::decode(*loaded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->incarnation, 7u);
  ASSERT_EQ(decoded->agents.size(), 1u);
  EXPECT_EQ(decoded->agents[0].name, "macro-a");
  EXPECT_EQ(decoded->agents[0].policy_history.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexran
