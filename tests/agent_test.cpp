#include <gtest/gtest.h>

#include <map>
#include <set>

#include "agent/agent.h"
#include "agent/schedulers.h"
#include "field_rows.h"
#include "scenario/testbed.h"

namespace flexran::agent {
namespace {

using scenario::Testbed;

stack::UeProfile cqi_ue(int cqi) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  return profile;
}

scenario::EnbSpec default_spec(lte::EnbId id = 1) {
  scenario::EnbSpec spec;
  spec.enb.enb_id = id;
  spec.enb.cells[0].cell_id = id;
  spec.agent.name = "enb-" + std::to_string(id);
  return spec;
}

// ----------------------------------------------------------- VSF registry --

TEST(VsfFactory, BuiltinsRegistered) {
  register_builtin_vsfs();
  auto& factory = VsfFactory::instance();
  EXPECT_TRUE(factory.create("mac", "dl_ue_scheduler", "local_rr").ok());
  EXPECT_TRUE(factory.create("mac", "dl_ue_scheduler", "local_pf").ok());
  EXPECT_TRUE(factory.create("mac", "ul_ue_scheduler", "local_rr").ok());
  EXPECT_TRUE(factory.create("rrc", "handover_policy", "a3").ok());
  EXPECT_FALSE(factory.create("mac", "dl_ue_scheduler", "nonexistent").ok());
}

TEST(VsfCache, StoreIsIdempotentAndLookupWorks) {
  register_builtin_vsfs();
  VsfCache cache;
  ASSERT_TRUE(cache.store("mac", "dl_ue_scheduler", "local_rr").ok());
  Vsf* first = cache.get("mac", "dl_ue_scheduler", "local_rr");
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(cache.store("mac", "dl_ue_scheduler", "local_rr").ok());
  EXPECT_EQ(cache.get("mac", "dl_ue_scheduler", "local_rr"), first);  // same instance
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.store("mac", "dl_ue_scheduler", "missing_impl").ok());
  EXPECT_EQ(cache.get("mac", "dl_ue_scheduler", "missing_impl"), nullptr);
}

TEST(ControlModule, BehaviorSwapAndTypeChecking) {
  register_builtin_vsfs();
  VsfCache cache;
  ASSERT_TRUE(cache.store("mac", "dl_ue_scheduler", "local_rr").ok());
  ASSERT_TRUE(cache.store("mac", "dl_ue_scheduler", "local_pf").ok());
  MacControlModule mac(cache);
  EXPECT_EQ(mac.dl_scheduler(), nullptr);

  ASSERT_TRUE(mac.set_behavior(MacControlModule::kDlSchedulerSlot, "local_rr").ok());
  EXPECT_NE(mac.dl_scheduler(), nullptr);
  EXPECT_EQ(mac.active_implementation(MacControlModule::kDlSchedulerSlot), "local_rr");

  ASSERT_TRUE(mac.set_behavior(MacControlModule::kDlSchedulerSlot, "local_pf").ok());
  EXPECT_EQ(mac.active_implementation(MacControlModule::kDlSchedulerSlot), "local_pf");

  // A UL scheduler cannot be linked into the DL slot.
  ASSERT_TRUE(cache.store("mac", "ul_ue_scheduler", "local_rr").ok());
  // (the cache key differs, so lookup fails -> not_found)
  EXPECT_FALSE(mac.set_behavior(MacControlModule::kDlSchedulerSlot, "local_ul").ok());
  EXPECT_FALSE(mac.set_behavior("bogus_slot", "local_rr").ok());
}

TEST(ControlModule, ParameterForwarding) {
  register_builtin_vsfs();
  VsfCache cache;
  ASSERT_TRUE(cache.store("mac", "dl_ue_scheduler", "local_pf").ok());
  MacControlModule mac(cache);
  ASSERT_TRUE(mac.set_behavior(MacControlModule::kDlSchedulerSlot, "local_pf").ok());

  EXPECT_TRUE(mac.set_parameter(MacControlModule::kDlSchedulerSlot, "max_ues_per_tti",
                                util::YamlNode::scalar("2"))
                  .ok());
  EXPECT_FALSE(mac.set_parameter(MacControlModule::kDlSchedulerSlot, "bogus",
                                 util::YamlNode::scalar("1"))
                   .ok());
  EXPECT_FALSE(mac.set_parameter(MacControlModule::kDlSchedulerSlot, "max_ues_per_tti",
                                 util::YamlNode::scalar("0"))
                   .ok());
}

// ----------------------------------------------------------- PRB packing ---

TEST(Packing, PrbsNeededRoundsUp) {
  const int mcs = lte::cqi_to_mcs(10);
  const auto per_prb = lte::tbs_bits(mcs, 1);
  EXPECT_EQ(prbs_needed(per_prb, mcs), 1);
  EXPECT_EQ(prbs_needed(per_prb + 1, mcs), 2);
  EXPECT_EQ(prbs_needed(0, mcs), 0);
  EXPECT_EQ(prbs_needed(1, mcs), 1);
}

TEST(Packing, ContiguousNonOverlapping) {
  std::vector<PrbDemand> demands = {{10, 20, 30}, {11, 20, 30}, {12, 20, 30}};
  const auto dcis = pack_dl_allocations(demands, 50);
  ASSERT_EQ(dcis.size(), 2u);  // 30 + 20, third UE gets nothing
  EXPECT_EQ(dcis[0].rbs.count(), 30);
  EXPECT_EQ(dcis[1].rbs.count(), 20);
  EXPECT_FALSE(dcis[0].rbs.overlaps(dcis[1].rbs));
}

// --------------------------------------------------------------- reports ---

class ReportsFixture : public ::testing::Test {
 protected:
  ReportsFixture() : enb_(simulator_, lte::EnbConfig{}), api_(enb_), reports_(api_) {
    stack::UeProfile profile;
    profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(10);
    rnti_ = enb_.add_ue(std::move(profile));
  }

  sim::Simulator simulator_;
  stack::EnodebDataPlane enb_;
  AgentApi api_;
  ReportsManager reports_;
  lte::Rnti rnti_ = 0;
};

TEST_F(ReportsFixture, OneOffFiresExactlyOnce) {
  proto::StatsRequest request;
  request.request_id = 1;
  request.mode = proto::ReportMode::one_off;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(1).size(), 1u);
  EXPECT_EQ(reports_.collect(2).size(), 0u);
  EXPECT_EQ(reports_.active_registrations(), 0u);
}

TEST_F(ReportsFixture, PeriodicHonorsPeriod) {
  proto::StatsRequest request;
  request.request_id = 2;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 3;
  reports_.register_request(request, 0);
  int fired = 0;
  for (std::int64_t sf = 0; sf < 12; ++sf) fired += static_cast<int>(reports_.collect(sf).size());
  EXPECT_EQ(fired, 4);  // sf 0, 3, 6, 9
}

TEST_F(ReportsFixture, TriggeredFiresOnlyOnChange) {
  proto::StatsRequest request;
  request.request_id = 3;
  request.mode = proto::ReportMode::triggered;
  request.flags = proto::stats_flags::kRlcQueue | proto::stats_flags::kBsr;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(1).size(), 1u);  // initial
  EXPECT_EQ(reports_.collect(2).size(), 0u);  // unchanged
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 500);
  EXPECT_EQ(reports_.collect(3).size(), 1u);  // queue grew
  EXPECT_EQ(reports_.collect(4).size(), 0u);
}

TEST_F(ReportsFixture, TriggeredDetectsChangesPerFlagClass) {
  // A mutation visible to one flag class fires that registration and
  // leaves a disjoint one silent.
  proto::StatsRequest rlc;
  rlc.request_id = 20;
  rlc.mode = proto::ReportMode::triggered;
  rlc.flags = proto::stats_flags::kRlcQueue;
  proto::StatsRequest bsr;
  bsr.request_id = 21;
  bsr.mode = proto::ReportMode::triggered;
  bsr.flags = proto::stats_flags::kBsr;
  reports_.register_request(rlc, 0);
  reports_.register_request(bsr, 0);
  EXPECT_EQ(reports_.collect(1).size(), 2u);  // baselines
  EXPECT_EQ(reports_.collect(2).size(), 0u);

  // UL buffer bytes feed only the BSR report; the RLC queue view is blind
  // to them, so this is the exclusivity probe.
  enb_.enqueue_ul(rnti_, 700);
  auto due = reports_.collect(3);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->request_id, 21u);

  // A DL enqueue moves both views: rlc_queue_bytes directly, and bsr_bytes
  // because the BSR is computed from the DL queue per LC group.
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 500);
  due = reports_.collect(4);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0]->request_id, 20u);
  EXPECT_EQ(due[1]->request_id, 21u);

  // CQI sampling (kCqi) and cell load (kCellLoad) classes. The queue
  // registrations are cancelled first: running a real TTI below drains the
  // DL queue, which would fire them and muddy the count.
  for (const std::uint32_t id : {20u, 21u}) reports_.cancel_request(id);
  proto::StatsRequest cqi;
  cqi.request_id = 22;
  cqi.mode = proto::ReportMode::triggered;
  cqi.flags = proto::stats_flags::kCqi;
  proto::StatsRequest cell;
  cell.request_id = 23;
  cell.mode = proto::ReportMode::triggered;
  cell.flags = proto::stats_flags::kCellLoad;
  reports_.register_request(cqi, 5);
  reports_.register_request(cell, 5);
  EXPECT_EQ(reports_.collect(5).size(), 2u);  // baselines (CQI unsampled)
  enb_.subframe_begin(6);                     // samples CQI 0 -> 10
  due = reports_.collect(6);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0]->request_id, 22u);

  // Remaining per-UE classes (PHR, HARQ, MAC counters, RSRP): a scope
  // change -- a new UE joining -- must register as a content change. The
  // earlier registrations are cancelled so the count below isolates the
  // four classes under test.
  for (const std::uint32_t id : {22u, 23u}) reports_.cancel_request(id);
  for (const std::uint32_t flag :
       {proto::stats_flags::kPhr, proto::stats_flags::kHarq,
        proto::stats_flags::kMacCounters, proto::stats_flags::kRsrp}) {
    proto::StatsRequest request;
    request.request_id = 30 + flag;
    request.mode = proto::ReportMode::triggered;
    request.flags = flag;
    reports_.register_request(request, 7);
  }
  EXPECT_EQ(reports_.collect(7).size(), 4u);  // baselines
  EXPECT_EQ(reports_.collect(8).size(), 0u);
  stack::UeProfile extra;
  extra.dl_channel = std::make_unique<phy::FixedCqiChannel>(7);
  enb_.add_ue(std::move(extra));
  EXPECT_EQ(reports_.collect(9).size(), 4u);  // every class sees the change
  EXPECT_EQ(reports_.collect(10).size(), 0u);
}

// The triggered-report fingerprint covers every row of the report
// tables: moving any one UE report, RSRP or cell report row off its value
// changes it, and so does the request id; the subframe alone does not.
// (The data plane cannot set every row -- the PHR, the HARQ backlog and
// the noise figure are fixed there -- so the rows are set on a reply.)
TEST(ReportFingerprint, EveryRowButTheSubframeCounts) {
  using proto::testing::change_row;
  proto::StatsReply base;
  base.request_id = 5;
  base.subframe = 100;
  base.ue_reports.emplace_back().rsrp.emplace_back();
  base.cell_reports.emplace_back();
  const std::uint64_t print = ReportsManager::fingerprint(base);

  proto::StatsReply later = base;
  later.subframe = 101;
  EXPECT_EQ(ReportsManager::fingerprint(later), print);
  int rows = 0;
  proto::StatsReply::Fields::each([&]<typename Row>() {
    if constexpr (!Row::template names<&proto::StatsReply::subframe>) {
      proto::StatsReply changed = base;
      change_row<Row>(changed);
      EXPECT_NE(ReportsManager::fingerprint(changed), print) << "StatsReply field " << Row::number;
      ++rows;
    }
  });
  proto::UeStatsReport::Fields::each([&]<typename Row>() {
    proto::StatsReply changed = base;
    change_row<Row>(changed.ue_reports[0]);
    EXPECT_NE(ReportsManager::fingerprint(changed), print)
        << "UeStatsReport field " << Row::number;
    ++rows;
  });
  proto::RsrpMeasurement::Fields::each([&]<typename Row>() {
    proto::StatsReply changed = base;
    change_row<Row>(changed.ue_reports[0].rsrp[0]);
    EXPECT_NE(ReportsManager::fingerprint(changed), print)
        << "RsrpMeasurement field " << Row::number;
    ++rows;
  });
  proto::CellStatsReport::Fields::each([&]<typename Row>() {
    proto::StatsReply changed = base;
    change_row<Row>(changed.cell_reports[0]);
    EXPECT_NE(ReportsManager::fingerprint(changed), print)
        << "CellStatsReport field " << Row::number;
    ++rows;
  });
  EXPECT_EQ(rows, 3 + 11 + 2 + 5);
}

TEST_F(ReportsFixture, TriggeredRebaselinesAfterClear) {
  proto::StatsRequest request;
  request.request_id = 24;
  request.mode = proto::ReportMode::triggered;
  request.flags = proto::stats_flags::kRlcQueue;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(1).size(), 1u);

  // Session teardown drops the registration; the master re-installs it on
  // re-sync. The fresh registration must fire a baseline report even
  // though the contents never changed -- the master's view was lost with
  // the session -- and suppression must resume after it.
  reports_.clear();
  EXPECT_EQ(reports_.active_registrations(), 0u);
  reports_.register_request(request, 2);
  EXPECT_EQ(reports_.collect(3).size(), 1u);
  EXPECT_EQ(reports_.collect(4).size(), 0u);
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 300);
  EXPECT_EQ(reports_.collect(5).size(), 1u);
}

TEST_F(ReportsFixture, UeScopedRequestReportsOnlyListedUes) {
  stack::UeProfile other_profile;
  other_profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(5);
  const auto other = enb_.add_ue(std::move(other_profile));
  (void)other;

  proto::StatsRequest request;
  request.request_id = 9;
  request.mode = proto::ReportMode::one_off;
  request.ues = {rnti_};  // scope to one UE
  reports_.register_request(request, 0);
  auto due = reports_.collect(1);
  ASSERT_EQ(due.size(), 1u);
  ASSERT_EQ(due[0]->ue_reports.size(), 1u);
  EXPECT_EQ(due[0]->ue_reports[0].rnti, rnti_);
}

TEST_F(ReportsFixture, PeriodicReplacementReschedulesFromNow) {
  proto::StatsRequest request;
  request.request_id = 6;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 2;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(0).size(), 1u);  // fresh registration: immediate

  // Replace at sf 1 with a longer period (the master renegotiating under
  // overload). The replacement must NOT fire immediately, must NOT inherit
  // the old next_due (sf 2), and must fire at 1 + 5 = 6.
  request.periodicity_ttis = 5;
  reports_.register_request(request, 1);
  EXPECT_EQ(reports_.collect(2).size(), 0u);  // stale cadence suppressed
  EXPECT_EQ(reports_.collect(5).size(), 0u);
  EXPECT_EQ(reports_.collect(6).size(), 1u);  // new period, from replacement
  EXPECT_EQ(reports_.collect(11).size(), 1u);
}

TEST_F(ReportsFixture, TriggeredReplacementPreservesFingerprint) {
  proto::StatsRequest request;
  request.request_id = 7;
  request.mode = proto::ReportMode::triggered;
  request.flags = proto::stats_flags::kRlcQueue;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(1).size(), 1u);  // baseline
  // Re-registering the same request (e.g. a re-sent frame) keeps the
  // fingerprint: no spurious re-fire on unchanged contents.
  reports_.register_request(request, 2);
  EXPECT_EQ(reports_.collect(3).size(), 0u);
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 500);
  EXPECT_EQ(reports_.collect(4).size(), 1u);  // change still detected
}

TEST_F(ReportsFixture, ThrottleStretchesPeriodicReports) {
  proto::StatsRequest request;
  request.request_id = 8;
  request.mode = proto::ReportMode::periodic;
  request.periodicity_ttis = 2;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.collect(0).size(), 1u);  // next_due = 2

  reports_.set_throttle(3);
  // Already-due report fires once, then reschedules at the stretched
  // period (2 * 3 = 6).
  EXPECT_EQ(reports_.collect(2).size(), 1u);
  EXPECT_EQ(reports_.collect(4).size(), 0u);
  EXPECT_EQ(reports_.collect(8).size(), 1u);

  // Hint 0 clamps back to full rate -- effective at the next
  // rescheduling, so the already-stretched next_due (14) still stands.
  reports_.set_throttle(0);
  EXPECT_EQ(reports_.throttle(), 1u);
  EXPECT_EQ(reports_.collect(10).size(), 0u);
  EXPECT_EQ(reports_.collect(14).size(), 1u);
  EXPECT_EQ(reports_.collect(16).size(), 1u);  // original cadence restored
}

TEST_F(ReportsFixture, CancelViaZeroFlags) {
  proto::StatsRequest request;
  request.request_id = 4;
  request.mode = proto::ReportMode::periodic;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.active_registrations(), 1u);
  request.flags = 0;
  reports_.register_request(request, 0);
  EXPECT_EQ(reports_.active_registrations(), 0u);
}

TEST_F(ReportsFixture, FlagsFilterReportContents) {
  proto::StatsRequest request;
  request.request_id = 5;
  request.mode = proto::ReportMode::one_off;
  request.flags = proto::stats_flags::kCqi;  // CQI only, no cell reports
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 500);
  enb_.subframe_begin(1);  // samples CQI
  reports_.register_request(request, 1);
  auto due = reports_.collect(1);
  ASSERT_EQ(due.size(), 1u);
  ASSERT_EQ(due[0]->ue_reports.size(), 1u);
  EXPECT_EQ(due[0]->ue_reports[0].wb_cqi, 10);
  EXPECT_EQ(due[0]->ue_reports[0].rlc_queue_bytes, 0u);  // filtered out
  EXPECT_TRUE(due[0]->cell_reports.empty());
}

// Each UeStatsReport row names the stats_flags bit that selects it:
// clearing one flag resets exactly that flag's rows to their defaults and
// leaves every other row as the full report has it.
TEST_F(ReportsFixture, ClearedFlagResetsExactlyItsRows) {
  stack::UeProfile measured;
  measured.radio_profile = phy::UeRadioProfile::from_distances(
      1, phy::kMacroTxPowerDbm, 0.1, {{2, {phy::kPicoTxPowerDbm, 0.5}}});
  const lte::Rnti measured_rnti = enb_.add_ue(std::move(measured));
  enb_.enqueue_dl(rnti_, lte::kDefaultDrb, 500);
  enb_.enqueue_ul(measured_rnti, 700);
  enb_.subframe_begin(1);  // samples CQI
  std::uint32_t next_id = 40;
  const auto report = [&](std::uint32_t flags) {
    proto::StatsRequest request;
    request.request_id = next_id++;
    request.flags = flags;
    reports_.register_request(request, 1);
    const auto due = reports_.collect(1);
    EXPECT_EQ(due.size(), 1u);
    return due.empty() ? proto::StatsReply{} : *due[0];
  };
  const proto::StatsReply full = report(proto::stats_flags::kAllUeFlags);
  ASSERT_EQ(full.ue_reports.size(), 2u);
  EXPECT_NE(full.ue_reports[0].rlc_queue_bytes, 0u);
  EXPECT_NE(full.ue_reports[1].ul_buffer_bytes, 0u);
  EXPECT_NE(full.ue_reports[0].wb_cqi, 0);
  EXPECT_NE(full.ue_reports[0].wb_cqi_protected, 0);
  EXPECT_FALSE(full.ue_reports[1].rsrp.empty());

  // The fields each flag selects, as docs/PROTOCOL.md lists them.
  using namespace proto::stats_flags;
  const std::map<std::uint32_t, std::set<int>> selects = {
      {kBsr, {2, 11}},        {kCqi, {4, 9}}, {kPhr, {3}},  {kRlcQueue, {5}},
      {kMacCounters, {7, 8}}, {kHarq, {6}},   {kRsrp, {10}}};
  using proto::testing::row_values;
  const proto::UeStatsReport defaults;
  for (const auto& [flag, fields] : selects) {
    const proto::StatsReply masked = report(kAllUeFlags & ~flag);
    ASSERT_EQ(masked.ue_reports.size(), full.ue_reports.size());
    for (std::size_t i = 0; i < masked.ue_reports.size(); ++i) {
      proto::UeStatsReport::Fields::each([&]<typename Row>() {
        const bool selected = fields.count(Row::number) > 0;
        EXPECT_EQ(Row::flag == flag, selected) << "flag " << flag << ", field " << Row::number;
        const auto want =
            selected ? row_values<Row>(defaults) : row_values<Row>(full.ue_reports[i]);
        EXPECT_EQ(row_values<Row>(masked.ue_reports[i]), want)
            << "flag " << flag << ", UE " << i << ", field " << Row::number;
      });
    }
  }
}

// --------------------------------------------------- end-to-end via testbed --

TEST(AgentEndToEnd, HelloAndAutoConfigurationPopulateRib) {
  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec(7));
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(30);

  const auto* agent_node = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(agent_node, nullptr);
  EXPECT_EQ(agent_node->enb_id, 7u);
  EXPECT_EQ(agent_node->name, "enb-7");
  ASSERT_FALSE(agent_node->capabilities.empty());
  ASSERT_NE(agent_node->find_cell(7), nullptr);
  EXPECT_DOUBLE_EQ(agent_node->find_cell(7)->config.bandwidth_mhz, 10.0);
}

TEST(AgentEndToEnd, LocalSchedulerAttachesAndServesUes) {
  Testbed testbed(scenario::per_tti_master_config());
  testbed.add_enb(default_spec());
  const auto rnti_a = testbed.add_ue(0, cqi_ue(15));
  const auto rnti_b = testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(50);

  auto& dp = *testbed.enb(0).data_plane;
  ASSERT_TRUE(dp.ue(rnti_a)->connected());
  ASSERT_TRUE(dp.ue(rnti_b)->connected());

  // Saturate both UEs for two seconds; round robin must split evenly.
  testbed.on_tti([&](std::int64_t) {
    for (auto rnti : {rnti_a, rnti_b}) {
      if (dp.ue(rnti)->dl_queue.total_bytes() < 50'000) {
        (void)testbed.epc().downlink(rnti, 50'000);
      }
    }
  });
  testbed.run_ttis(2000);
  const auto bytes_a = testbed.metrics().total_bytes(1, rnti_a, lte::Direction::downlink);
  const auto bytes_b = testbed.metrics().total_bytes(1, rnti_b, lte::Direction::downlink);
  const double mbps_total = scenario::Metrics::mbps(bytes_a + bytes_b, 2.0);
  EXPECT_GT(mbps_total, 20.0);
  EXPECT_LT(mbps_total, 27.0);
  // Fairness: within 10%.
  EXPECT_NEAR(static_cast<double>(bytes_a) / static_cast<double>(bytes_b), 1.0, 0.1);
}

TEST(AgentEndToEnd, PolicyReconfigurationSwapsScheduler) {
  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec());
  testbed.run_ttis(5);
  EXPECT_EQ(enb.agent->mac().active_implementation(MacControlModule::kDlSchedulerSlot),
            "local_rr");

  const char* yaml =
      "mac:\n"
      "  dl_ue_scheduler:\n"
      "    behavior: local_pf\n"
      "    parameters:\n"
      "      max_ues_per_tti: 2\n";
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, yaml).ok());
  testbed.run_ttis(5);
  EXPECT_EQ(enb.agent->mac().active_implementation(MacControlModule::kDlSchedulerSlot),
            "local_pf");
}

TEST(AgentEndToEnd, VsfUpdationPushesIntoCache) {
  register_builtin_vsfs();
  // A custom implementation registered process-wide, as a third-party VSF
  // developer would (the factory stands in for the .so, see DESIGN.md).
  VsfFactory::instance().register_implementation(
      "mac", "dl_ue_scheduler", "test_custom", [] { return std::make_unique<RoundRobinDlVsf>(); });

  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec());
  testbed.run_ttis(2);
  EXPECT_EQ(enb.agent->vsf_cache().get("mac", "dl_ue_scheduler", "test_custom"), nullptr);

  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "test_custom").ok());
  testbed.run_ttis(2);
  EXPECT_NE(enb.agent->vsf_cache().get("mac", "dl_ue_scheduler", "test_custom"), nullptr);

  // And it can now be activated by policy.
  ASSERT_TRUE(testbed.master()
                  .send_policy(enb.agent_id,
                               "mac:\n  dl_ue_scheduler:\n    behavior: test_custom\n")
                  .ok());
  testbed.run_ttis(2);
  EXPECT_EQ(enb.agent->mac().active_implementation(MacControlModule::kDlSchedulerSlot),
            "test_custom");
}

TEST(AgentEndToEnd, StaleDlMacConfigCountsMissedDeadline) {
  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec());
  const auto rnti = testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(30);

  proto::DlMacConfig config;
  config.cell_id = 1;
  config.target_subframe = testbed.sim().current_tti() - 10;  // hopelessly late
  lte::DlDci dci;
  dci.rnti = rnti;
  dci.rbs.set_range(0, 10);
  dci.mcs = 10;
  config.dcis.push_back(dci);
  ASSERT_TRUE(testbed.master().send_dl_mac_config(enb.agent_id, config).ok());
  testbed.run_ttis(5);
  EXPECT_EQ(enb.agent->missed_deadline_decisions(), 1u);
  EXPECT_EQ(enb.agent->remote_decisions_applied(), 0u);
}

TEST(AgentEndToEnd, AbsConfigCommandReachesDataPlane) {
  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec());
  testbed.run_ttis(2);

  proto::AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(4);
  abs.mute_during_abs = true;
  ASSERT_TRUE(testbed.master().send_abs_config(enb.agent_id, abs).ok());
  testbed.run_ttis(2);
  int abs_subframes = 0;
  for (int sf = 0; sf < lte::AbsPattern::kPatternLength; ++sf) {
    abs_subframes += enb.data_plane->is_abs(sf) ? 1 : 0;
  }
  EXPECT_EQ(abs_subframes, 16);
  EXPECT_TRUE(enb.data_plane->muted_in(0));
  EXPECT_FALSE(enb.data_plane->muted_in(5));
}

TEST(AgentEndToEnd, EventUnsubscribeStopsNotifications) {
  Testbed testbed;  // no default subscriptions
  auto& enb = testbed.add_enb(default_spec());
  testbed.run_ttis(5);

  // Subscribe to attach events, observe one, unsubscribe, observe none.
  ASSERT_TRUE(testbed.master()
                  .subscribe_events(enb.agent_id, {proto::EventType::ue_attach}, true)
                  .ok());
  testbed.run_ttis(5);
  testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(30);
  const auto& rx = testbed.master().rx_accounting(enb.agent_id);
  const auto mgmt_after_first = rx.messages(proto::MessageCategory::agent_management);

  ASSERT_TRUE(testbed.master()
                  .subscribe_events(enb.agent_id, {proto::EventType::ue_attach}, false)
                  .ok());
  testbed.run_ttis(5);
  const auto mgmt_before_second = rx.messages(proto::MessageCategory::agent_management);
  testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(30);
  // No attach notification crossed the wire after unsubscribing.
  EXPECT_EQ(rx.messages(proto::MessageCategory::agent_management), mgmt_before_second);
  EXPECT_GT(mgmt_after_first, 0u);
}

TEST(AgentEndToEnd, RemovedUeVanishesFromReportsAndInFlight) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(default_spec());
  const auto keep = testbed.add_ue(0, cqi_ue(15));
  const auto drop = testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(30);
  ASSERT_TRUE(enb.data_plane->ue(drop)->connected());

  // Put data in flight for the UE, then remove it mid-transfer.
  enb.data_plane->enqueue_dl(drop, lte::kDefaultDrb, 50'000);
  testbed.run_ttis(2);
  ASSERT_TRUE(enb.data_plane->trigger_handover(drop).ok());
  testbed.run_ttis(30);  // pending HARQ feedback must not crash or deliver

  EXPECT_EQ(enb.data_plane->ue(drop), nullptr);
  EXPECT_NE(enb.data_plane->ue(keep), nullptr);
  const auto view = enb.data_plane->scheduler_view();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].rnti, keep);
}

TEST(AgentEndToEnd, SurvivesMalformedAndUnexpectedMessages) {
  Testbed testbed;
  auto& enb = testbed.add_enb(default_spec());
  const auto rnti = testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(20);
  ASSERT_TRUE(enb.data_plane->ue(rnti)->connected());

  // Garbage bytes, a truncated envelope, and an agent-to-master-only
  // message type arriving at the agent: all must be absorbed.
  ASSERT_TRUE(enb.master_side->send(std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}).ok());
  auto valid = proto::pack(proto::EchoRequest{.subframe = 1, .timestamp_us = 2});
  valid.resize(valid.size() / 2);
  ASSERT_TRUE(enb.master_side->send(valid).ok());
  ASSERT_TRUE(enb.master_side->send(proto::pack(proto::Hello{})).ok());

  // A policy for an unknown module must fail without breaking the agent.
  EXPECT_FALSE(enb.agent->apply_policy("pdcp:\n  rohc:\n    behavior: x\n").ok());
  EXPECT_FALSE(enb.agent->apply_policy("mac:\n  bogus_slot:\n    behavior: x\n").ok());

  testbed.run_ttis(50);
  // The agent is still alive and scheduling.
  EXPECT_TRUE(enb.data_plane->ue(rnti)->connected());
  enb.data_plane->enqueue_dl(rnti, lte::kDefaultDrb, 5000);
  testbed.run_ttis(10);
  EXPECT_EQ(enb.data_plane->ue(rnti)->dl_queue.total_bytes(), 0u);
}

TEST(AgentEndToEnd, MasterSurvivesGarbageFromAgent) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(default_spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(20);

  ASSERT_TRUE(enb.agent_side->send(std::vector<std::uint8_t>{0xff, 0x00, 0x13}).ok());
  // A master-to-agent-only type arriving at the master.
  ASSERT_TRUE(enb.agent_side->send(proto::pack(proto::StatsRequest{})).ok());
  testbed.run_ttis(50);

  // The RIB keeps updating normally afterwards.
  const auto updates_before = testbed.master().stats().updates_applied;
  testbed.run_ttis(50);
  EXPECT_GT(testbed.master().stats().updates_applied, updates_before);
}

TEST(AgentEndToEnd, SignalingAccountingSeparatesCategories) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(default_spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(100);

  const auto& tx = enb.agent->tx_accounting();
  EXPECT_GT(tx.bytes(proto::MessageCategory::stats), 0u);
  EXPECT_GT(tx.bytes(proto::MessageCategory::sync), 0u);
  EXPECT_GT(tx.bytes(proto::MessageCategory::agent_management), 0u);
  // Stats dominate sync, sync dominates management (Fig. 7a ordering).
  EXPECT_GT(tx.bytes(proto::MessageCategory::stats), tx.bytes(proto::MessageCategory::sync));
  EXPECT_GT(tx.bytes(proto::MessageCategory::sync),
            tx.bytes(proto::MessageCategory::agent_management));
}

TEST(AgentEndToEnd, RxAccountingReconcilesWithMasterTx) {
  // Fig. 7 reconciliation from both ends of the wire: every byte the
  // master records as sent to this agent shows up in the agent's rx
  // accountant, in the same category, with the same frame-header-bytes
  // convention. (Zero-delay loss-free link, so nothing is in flight once
  // the run stops.)
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(default_spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(100);
  testbed.master().quiesce();

  const auto& master_tx = testbed.master().tx_accounting(enb.agent_id);
  const auto& agent_rx = enb.agent->rx_accounting();
  ASSERT_GT(master_tx.total_messages(), 0u);
  for (auto category :
       {proto::MessageCategory::agent_management, proto::MessageCategory::sync,
        proto::MessageCategory::stats, proto::MessageCategory::commands,
        proto::MessageCategory::delegation}) {
    EXPECT_EQ(agent_rx.bytes(category), master_tx.bytes(category))
        << proto::to_string(category);
    EXPECT_EQ(agent_rx.messages(category), master_tx.messages(category))
        << proto::to_string(category);
  }
}

TEST(AgentEndToEnd, AccountedBytesMatchFramedLinkBytes) {
  // The shared convention is `wire.size() + net::kFrameHeaderBytes` per
  // message, which is exactly what the framed link carries: accounted
  // totals must equal the transport's byte counter with no fudge factor.
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(default_spec());
  testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(100);

  EXPECT_EQ(enb.agent->tx_accounting().total_bytes(), enb.agent_side->bytes_sent());
  EXPECT_EQ(enb.agent->tx_accounting().total_messages(), enb.agent_side->messages_sent());
  // Same convention on the receive side: what the agent counted as
  // received equals what the master side framed and sent (loss-free link).
  EXPECT_EQ(enb.agent->rx_accounting().total_bytes(), enb.master_side->bytes_sent());
}

}  // namespace
}  // namespace flexran::agent
