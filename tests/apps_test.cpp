#include <gtest/gtest.h>

#include "apps/eicic.h"
#include "apps/mec_dash.h"
#include "apps/monitoring.h"
#include "apps/ran_sharing.h"
#include "apps/remote_scheduler.h"
#include "scenario/dash_session.h"
#include "scenario/testbed.h"
#include "traffic/udp.h"

namespace flexran::apps {
namespace {

using scenario::Testbed;

stack::UeProfile cqi_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

scenario::EnbSpec spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  return s;
}

/// Keeps a UE's downlink queue backlogged.
void saturate(Testbed& testbed, stack::EnodebDataPlane& dp, lte::Rnti rnti,
              std::uint32_t low_water = 60'000) {
  testbed.on_tti([&dp, rnti, low_water, &testbed](std::int64_t) {
    const auto* ue = dp.ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < low_water) {
      (void)testbed.epc().downlink(rnti, low_water);
    }
  });
}

// -------------------------------------------------------------- monitoring --

TEST(Monitoring, SummarizesRib) {
  Testbed testbed(scenario::per_tti_master_config());
  auto* app = static_cast<MonitoringApp*>(
      testbed.master().add_app(std::make_unique<MonitoringApp>(10)));
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.add_ue(0, cqi_ue(14));
  testbed.run_ttis(100);

  EXPECT_GT(app->snapshots_taken(), 5);
  const auto& summaries = app->summaries();
  ASSERT_TRUE(summaries.contains(enb.agent_id));
  EXPECT_EQ(summaries.at(enb.agent_id).ue_count, 2u);
  EXPECT_NEAR(summaries.at(enb.agent_id).mean_cqi, 12.0, 1.0);
}

// -------------------------------------------------------- remote scheduler --

TEST(RemoteScheduler, CentralizedSchedulingServesUes) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";  // local scheduler inactive
  auto& enb = testbed.add_enb(s);
  auto* app = static_cast<RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<RemoteSchedulerApp>()));

  const auto rnti = testbed.add_ue(0, cqi_ue(15, /*attach_after=*/20));
  testbed.run_ttis(200);
  ASSERT_TRUE(enb.data_plane->ue(rnti)->connected())
      << "remote scheduler must carry the attach signaling";

  saturate(testbed, *enb.data_plane, rnti);
  testbed.run_ttis(2000);
  const double mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink), 2.2);
  EXPECT_GT(mbps, 18.0);  // centralized scheduling sustains near-full rate
  EXPECT_GT(app->decisions_sent(), 1500u);
  EXPECT_GT(enb.agent->remote_decisions_applied(), 1500u);
}

TEST(RemoteScheduler, InsufficientScheduleAheadStallsAttach) {
  // Fig. 9 lower triangle: one-way delay 15 ms but decisions target only
  // +2 subframes -> every decision arrives past its deadline.
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";
  s.uplink.delay = sim::from_ms(15);
  s.downlink.delay = sim::from_ms(15);
  auto& enb = testbed.add_enb(s);
  RemoteSchedulerConfig config;
  config.schedule_ahead_sf = 2;
  testbed.master().add_app(std::make_unique<RemoteSchedulerApp>(config));

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 20));
  testbed.run_ttis(3000);
  EXPECT_FALSE(enb.data_plane->ue(rnti)->connected());
  EXPECT_GT(enb.agent->missed_deadline_decisions(), 100u);
}

TEST(RemoteScheduler, SufficientScheduleAheadSurvivesLatency) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.agent.dl_scheduler = "remote";
  s.uplink.delay = sim::from_ms(15);
  s.downlink.delay = sim::from_ms(15);
  auto& enb = testbed.add_enb(s);
  RemoteSchedulerConfig config;
  config.schedule_ahead_sf = 40;  // covers RTT 30 ms comfortably
  testbed.master().add_app(std::make_unique<RemoteSchedulerApp>(config));

  const auto rnti = testbed.add_ue(0, cqi_ue(15, 20));
  testbed.run_ttis(1000);
  ASSERT_TRUE(enb.data_plane->ue(rnti)->connected());

  saturate(testbed, *enb.data_plane, rnti);
  testbed.run_ttis(2000);
  const double mbps = scenario::Metrics::mbps(
      testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink), 3.0);
  EXPECT_GT(mbps, 12.0);
}

// --------------------------------------------------------------- MEC DASH --

TEST(MecDash, TableInterpolation) {
  // The paper's Table 2 (the authors' testbed measurements).
  const CqiBitrateTable table = {{2, 1.4}, {3, 2.0}, {4, 2.9}, {10, 7.3}, {15, 11.0}};
  EXPECT_DOUBLE_EQ(sustainable_bitrate_mbps(table, 2.0), 1.4);
  EXPECT_DOUBLE_EQ(sustainable_bitrate_mbps(table, 10.0), 7.3);
  EXPECT_DOUBLE_EQ(sustainable_bitrate_mbps(table, 1.0), 1.4);   // clamp low
  EXPECT_DOUBLE_EQ(sustainable_bitrate_mbps(table, 20.0), 11.0);  // clamp high
  const double mid = sustainable_bitrate_mbps(table, 7.0);        // between 4 and 10
  EXPECT_GT(mid, 2.9);
  EXPECT_LT(mid, 7.3);
}

TEST(MecDash, PushesBitrateOnCqiChange) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  // Channel toggles CQI 10 -> 4 at t=3s (Fig. 11b pattern).
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::ScheduledCqiChannel>(
      std::vector<phy::ScheduledCqiChannel::Step>{{0, 10}, {sim::from_seconds(3), 4}});
  const auto rnti = testbed.add_ue(0, std::move(profile));

  std::vector<double> pushes;
  MecDashApp::Config config;
  config.agent = enb.agent_id;
  config.period_cycles = 50;
  testbed.master().add_app(std::make_unique<MecDashApp>(
      config, [&](lte::Rnti r, double mbps) {
        EXPECT_EQ(r, rnti);
        pushes.push_back(mbps);
      }));

  testbed.run_ttis(2000);
  ASSERT_FALSE(pushes.empty());
  EXPECT_NEAR(pushes.back(), sustainable_bitrate_mbps(calibrated_table2_bitrates(), 10.0), 0.8);
  testbed.run_ttis(4000);  // EWMA converges toward CQI 4
  ASSERT_GT(pushes.size(), 1u);
  EXPECT_NEAR(pushes.back(), sustainable_bitrate_mbps(calibrated_table2_bitrates(), 4.0), 0.8);
}

TEST(MecDash, LoadAwareGuidancePreventsMultiClientOverload) {
  // Two DASH clients share one CQI-10 cell (~11 Mb/s). Table 2's 7.3 Mb/s
  // is a sole-UE number: advising it to both overloads the cell; the
  // load-aware app halves the advice and both streams stay freeze-free.
  auto run = [](bool load_aware) {
    scenario::Testbed testbed(scenario::per_tti_master_config());
    auto& enb = testbed.add_enb(spec());
    const auto a = testbed.add_ue(0, cqi_ue(10));
    const auto b = testbed.add_ue(0, cqi_ue(10));
    testbed.run_ttis(50);

    traffic::DashClientConfig dash_config;
    dash_config.mode = traffic::AbrMode::assisted;
    scenario::DashSession session_a(testbed, 0, a, traffic::paper_video_4k(), dash_config);
    scenario::DashSession session_b(testbed, 0, b, traffic::paper_video_4k(), dash_config);

    MecDashApp::Config mec;
    mec.agent = enb.agent_id;
    mec.load_aware = load_aware;
    auto* ca = &session_a.client();
    auto* cb = &session_b.client();
    testbed.master().add_app(std::make_unique<MecDashApp>(
        mec, [ca, cb, a](lte::Rnti rnti, double mbps) {
          (rnti == a ? ca : cb)->set_bitrate_cap_mbps(mbps);
        }));
    session_a.start();
    session_b.start();
    testbed.run_seconds(60.0);
    return session_a.client().freeze_count() + session_b.client().freeze_count();
  };

  EXPECT_EQ(run(true), 0);
  EXPECT_GT(run(false), 0);  // sole-UE advice overloads the shared cell
}

// ------------------------------------------------------------ RAN sharing --

TEST(RanSharing, PolicyYamlRoundTrips) {
  std::vector<SliceSpec> slices(2);
  slices[0].share = 0.7;
  slices[0].policy = "fair";
  slices[0].rntis = {70, 71, 72};
  slices[1].share = 0.3;
  slices[1].policy = "group";
  slices[1].rntis = {80, 81, 82};
  slices[1].premium_rntis = {80, 81};
  slices[1].premium_share = 0.7;

  const auto yaml = make_slice_policy_yaml(slices);
  auto doc = util::parse_yaml(yaml);
  ASSERT_TRUE(doc.ok()) << doc.error().message;

  SlicedDlVsf vsf;
  const auto* params =
      doc.value().find("mac")->find("dl_ue_scheduler")->find("parameters")->find("slices");
  ASSERT_NE(params, nullptr);
  ASSERT_TRUE(vsf.set_parameter("slices", *params).ok());
  ASSERT_EQ(vsf.slices().size(), 2u);
  EXPECT_DOUBLE_EQ(vsf.slices()[0].share, 0.7);
  EXPECT_EQ(vsf.slices()[1].policy, "group");
  ASSERT_EQ(vsf.slices()[1].premium_rntis.size(), 2u);
  EXPECT_EQ(vsf.slices()[1].rntis.size(), 3u);
}

TEST(RanSharing, RejectsBadParameters) {
  SlicedDlVsf vsf;
  EXPECT_FALSE(vsf.set_parameter("bogus", util::YamlNode::scalar("1")).ok());
  EXPECT_FALSE(vsf.set_parameter("slices", util::YamlNode::scalar("1")).ok());
  auto bad_share = util::parse_yaml("items:\n  - share: 1.5\n").value();
  EXPECT_FALSE(vsf.set_parameter("slices", *bad_share.find("items")).ok());
}

TEST(RanSharing, SharesPartitionThroughput) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  std::vector<lte::Rnti> mno_ues;
  std::vector<lte::Rnti> mvno_ues;
  for (int i = 0; i < 3; ++i) mno_ues.push_back(testbed.add_ue(0, cqi_ue(15)));
  for (int i = 0; i < 3; ++i) mvno_ues.push_back(testbed.add_ue(0, cqi_ue(15)));
  testbed.run_ttis(60);
  for (auto rnti : mno_ues) ASSERT_TRUE(enb.data_plane->ue(rnti)->connected());

  // Install the sliced scheduler with a 70/30 split.
  register_usecase_vsfs();
  std::vector<SliceSpec> slices(2);
  slices[0].share = 0.7;
  slices[0].rntis = mno_ues;
  slices[1].share = 0.3;
  slices[1].rntis = mvno_ues;
  ASSERT_TRUE(testbed.master()
                  .push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "sliced")
                  .ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, make_slice_policy_yaml(slices)).ok());
  testbed.run_ttis(10);

  for (auto rnti : mno_ues) saturate(testbed, *enb.data_plane, rnti, 30'000);
  for (auto rnti : mvno_ues) saturate(testbed, *enb.data_plane, rnti, 30'000);
  testbed.run_ttis(2000);

  std::uint64_t mno_bytes = 0;
  std::uint64_t mvno_bytes = 0;
  for (auto rnti : mno_ues) {
    mno_bytes += testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  }
  for (auto rnti : mvno_ues) {
    mvno_bytes += testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
  }
  const double ratio = static_cast<double>(mno_bytes) / static_cast<double>(mno_bytes + mvno_bytes);
  EXPECT_NEAR(ratio, 0.7, 0.05);
}

TEST(RanSharing, GroupPolicyFavorsPremiumUsers) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  std::vector<lte::Rnti> ues;
  for (int i = 0; i < 5; ++i) ues.push_back(testbed.add_ue(0, cqi_ue(10)));
  testbed.run_ttis(80);

  register_usecase_vsfs();
  std::vector<SliceSpec> slices(1);
  slices[0].share = 1.0;
  slices[0].policy = "group";
  slices[0].rntis = ues;
  slices[0].premium_rntis = {ues[0], ues[1]};
  slices[0].premium_share = 0.7;
  ASSERT_TRUE(testbed.master()
                  .push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "sliced")
                  .ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, make_slice_policy_yaml(slices)).ok());
  for (auto rnti : ues) saturate(testbed, *enb.data_plane, rnti, 30'000);
  testbed.run_ttis(2000);

  const auto premium = testbed.metrics().total_bytes(1, ues[0], lte::Direction::downlink);
  const auto secondary = testbed.metrics().total_bytes(1, ues[4], lte::Direction::downlink);
  // 2 premium UEs share 70%, 3 secondary share 30%: per-UE ratio = 3.5x.
  EXPECT_GT(static_cast<double>(premium) / static_cast<double>(secondary), 2.0);
}

TEST(RanSharing, AppAppliesScheduledSteps) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  const auto a = testbed.add_ue(0, cqi_ue(15));
  const auto b = testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(60);

  register_usecase_vsfs();
  std::vector<RanSharingApp::Step> steps(2);
  steps[0].at_seconds = 0.0;
  steps[0].slices = {{0.7, "fair", {a}, {}, 0.7}, {0.3, "fair", {b}, {}, 0.7}};
  steps[1].at_seconds = 2.0;
  steps[1].slices = {{0.3, "fair", {a}, {}, 0.7}, {0.7, "fair", {b}, {}, 0.7}};
  auto* app = static_cast<RanSharingApp*>(
      testbed.master().add_app(std::make_unique<RanSharingApp>(enb.agent_id, steps)));

  saturate(testbed, *enb.data_plane, a, 30'000);
  saturate(testbed, *enb.data_plane, b, 30'000);
  testbed.run_ttis(1800);  // through t=1.9s
  const auto a_phase1 = testbed.metrics().total_bytes(1, a, lte::Direction::downlink);
  const auto b_phase1 = testbed.metrics().total_bytes(1, b, lte::Direction::downlink);
  EXPECT_GT(a_phase1, b_phase1 * 3 / 2);

  testbed.run_ttis(2000);  // phase 2
  EXPECT_EQ(app->steps_applied(), 2u);
  const auto a_phase2 = testbed.metrics().total_bytes(1, a, lte::Direction::downlink) - a_phase1;
  const auto b_phase2 = testbed.metrics().total_bytes(1, b, lte::Direction::downlink) - b_phase1;
  EXPECT_GT(b_phase2, a_phase2 * 3 / 2);
}

// ----------------------------------------------------------------- eICIC ---

TEST(Eicic, SmallCellVsfSchedulesOnlyInAbs) {
  register_usecase_vsfs();
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 2;
  config.cells[0].cell_id = 2;
  stack::EnodebDataPlane dp(simulator, config);
  agent::AgentApi api(dp);
  dp.configure_abs(lte::AbsPattern::per_frame(4), /*mute=*/false);

  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(10);
  const auto rnti = dp.add_ue(std::move(profile));
  dp.subframe_begin(1);
  dp.enqueue_dl(rnti, lte::kSrb1, 100);

  EicicSmallCellDlVsf vsf;
  auto in_abs = vsf.schedule_dl(api, 40);  // subframe 40 % 40 == 0 -> ABS
  EXPECT_FALSE(in_abs.dl.empty());
  auto outside = vsf.schedule_dl(api, 45);
  EXPECT_TRUE(outside.dl.empty());
}

TEST(Eicic, MacroVsfSkipsAbsWithoutMute) {
  register_usecase_vsfs();
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);
  agent::AgentApi api(dp);
  dp.configure_abs(lte::AbsPattern::per_frame(4), /*mute=*/false);

  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(10);
  const auto rnti = dp.add_ue(std::move(profile));
  dp.subframe_begin(1);
  dp.enqueue_dl(rnti, lte::kSrb1, 100);

  EicicMacroDlVsf vsf;
  EXPECT_TRUE(vsf.schedule_dl(api, 40).dl.empty());   // ABS -> leave to master
  EXPECT_FALSE(vsf.schedule_dl(api, 45).dl.empty());  // normal subframe
}

}  // namespace
}  // namespace flexran::apps
