#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "controller/rib.h"
#include "controller/rib_view.h"
#include "controller/shard_core.h"
#include "controller/task_manager.h"
#include "net/sim_transport.h"
#include "scenario/testbed.h"

namespace flexran::ctrl {
namespace {

using scenario::Testbed;

stack::UeProfile cqi_ue(int cqi) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  // Give the hello / event-subscription handshake time to finish before the
  // UE performs RACH, so attach events are observable at the master.
  profile.attach_after_ttis = 10;
  return profile;
}

scenario::EnbSpec spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  return s;
}

// -------------------------------------------------------------------- RIB --

TEST(Rib, ForestStructureAndLookups) {
  Rib rib;
  AgentNode& agent = rib.add_agent(1);
  agent.enb_id = 10;
  agent.cell(100);
  agent.ues[agent.upsert_ue(70)].cell = 100;

  ASSERT_NE(rib.find_agent(1), nullptr);
  EXPECT_EQ(rib.find_agent(2), nullptr);
  ASSERT_NE(rib.find_agent(1)->find_ue(70), nullptr);
  EXPECT_EQ(rib.find_agent(1)->find_ue(71), nullptr);
  EXPECT_EQ(rib.find_agent(1)->ues.size(), 1u);
  EXPECT_EQ(rib.agent_count(), 1u);

  rib.agent(1).ues[rib.agent(1).upsert_ue(70)].stats.wb_cqi = 9;
  EXPECT_EQ(rib.find_agent(1)->find_ue(70)->stats.wb_cqi, 9);
  // Only add_agent inserts: the write barrier refuses an id it lacks.
  EXPECT_THROW(rib.agent(2), std::out_of_range);
  EXPECT_EQ(rib.agent_count(), 1u);
}

TEST(Rib, UeAndCellRowsStaySorted) {
  AgentNode agent;
  for (const lte::Rnti rnti : {72, 70, 71}) agent.upsert_ue(rnti);
  agent.cell(5);
  agent.cell(2);
  ASSERT_EQ(agent.ues.size(), 3u);
  EXPECT_EQ(agent.ues[0].rnti, 70);
  EXPECT_EQ(agent.ues[2].rnti, 72);
  EXPECT_EQ(agent.upsert_ue(71), 1u);  // existing row, nothing inserted
  EXPECT_EQ(agent.ues.size(), 3u);
  ASSERT_EQ(agent.cells.size(), 2u);
  EXPECT_EQ(agent.cells[0].id, 2);
  EXPECT_EQ(agent.find_cell(5), &agent.cells[1]);
  EXPECT_EQ(agent.find_cell(3), nullptr);
  agent.erase_ue(71);
  agent.erase_ue(99);  // absent: no-op
  ASSERT_EQ(agent.hot.size(), 2u);
  EXPECT_EQ(agent.hot.rnti[1], 72);
  EXPECT_EQ(agent.find_ue(71), nullptr);
}

TEST(Rib, ApproxBytesGrowsWithContent) {
  Rib rib;
  const auto empty = rib.approx_bytes();
  AgentNode& agent = rib.add_agent(1);
  for (lte::Rnti rnti = 1; rnti <= 16; ++rnti) agent.upsert_ue(rnti);
  EXPECT_GT(rib.approx_bytes(), empty + 16 * sizeof(UeNode));
}

// ----------------------------------------------------------- Task manager --

/// A RecordingApp's log line for one event it received.
std::string event_entry(std::string_view app, proto::EventType event) {
  return std::string(app) + ":" + std::to_string(static_cast<int>(event));
}

class RecordingApp : public App {
 public:
  RecordingApp(std::string name, int priority, std::vector<std::string>& log)
      : name_(std::move(name)), priority_(priority), log_(&log) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override { log_->push_back(name_); }
  void on_event(const Event& event, NorthboundApi&) override {
    log_->push_back(event_entry(name_, event.notification.event));
  }

 private:
  std::string name_;
  int priority_;
  std::vector<std::string>* log_;
};

class NullNorthbound : public NorthboundApi {
 public:
  explicit NullNorthbound(Rib& rib) : rib_(&rib) {}
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override {
    return RibSnapshot::capture(*rib_);
  }
  sim::TimeUs now() const override { return 0; }
  std::int64_t agent_subframe(AgentId) const override { return 0; }
  util::Status send_dl_mac_config(AgentId, const proto::DlMacConfig&) override { return {}; }
  util::Status send_ul_mac_config(AgentId, const proto::UlMacConfig&) override { return {}; }
  util::Status send_handover(AgentId, const proto::HandoverCommand&) override { return {}; }
  util::Status send_abs_config(AgentId, const proto::AbsConfig&) override { return {}; }
  util::Status send_carrier_restriction(AgentId, const proto::CarrierRestriction&) override {
    return {};
  }
  util::Status send_drx_config(AgentId, const proto::DrxConfig&) override { return {}; }
  util::Status send_scell_command(AgentId, const proto::ScellCommand&) override { return {}; }
  util::Status request_stats(AgentId, const proto::StatsRequest&) override { return {}; }
  util::Status subscribe_events(AgentId, std::vector<proto::EventType>, bool) override {
    return {};
  }
  util::Status push_vsf(AgentId, const std::string&, const std::string&,
                        const std::string&) override {
    return {};
  }
  util::Status send_policy(AgentId, const std::string&) override { return {}; }

 private:
  Rib* rib_;
};

TEST(TaskManager, AppsRunInPriorityOrder) {
  Rib rib;
  NullNorthbound api(rib);
  std::vector<std::string> log;
  TaskManager tm({}, nullptr, nullptr, nullptr);
  RecordingApp monitoring("monitoring", 200, log);
  RecordingApp scheduler("scheduler", 1, log);  // time critical -> first
  tm.add_app(&monitoring, api);
  tm.add_app(&scheduler, api);
  tm.run_cycle(0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "scheduler");
  EXPECT_EQ(log[1], "monitoring");
}

TEST(TaskManager, PauseResumeRemove) {
  Rib rib;
  NullNorthbound api(rib);
  std::vector<std::string> log;
  TaskManager tm({}, nullptr, nullptr, nullptr);
  RecordingApp app("app", 10, log);
  tm.add_app(&app, api);

  ASSERT_TRUE(tm.set_paused("app", true).ok());
  tm.run_cycle(0);
  EXPECT_TRUE(log.empty());
  ASSERT_TRUE(tm.set_paused("app", false).ok());
  tm.run_cycle(1);
  EXPECT_EQ(log.size(), 1u);
  tm.remove_app("app");
  tm.run_cycle(2);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(tm.set_paused("ghost", true).ok());
}

TEST(TaskManager, RecordsSlotTimings) {
  Rib rib;
  NullNorthbound api(rib);
  int updates = 0;
  TaskManager tm({}, [&](std::int64_t) { ++updates; }, nullptr, nullptr);
  for (int i = 0; i < 10; ++i) tm.run_cycle(i);
  EXPECT_EQ(tm.cycles_run(), 10);
  EXPECT_EQ(updates, 10);
  EXPECT_EQ(tm.updater_time_us().count(), 10u);
  EXPECT_EQ(tm.stages().apps.count(), 10u);
  EXPECT_GT(tm.mean_idle_fraction(), 0.5);  // nothing heavy ran
}

// ------------------------------------------------------------ master E2E ---

TEST(MasterEndToEnd, PeriodicStatsPopulateUeNodes) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);

  const auto* ue = testbed.master().rib().find_agent(enb.agent_id)->find_ue(rnti);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(ue->stats.wb_cqi, 12);
  EXPECT_GT(ue->last_update, 0);
  EXPECT_NEAR(ue->cqi_avg.value(), 12.0, 0.5);
}

TEST(MasterEndToEnd, SubframeSyncTracksAgentTime) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.run_ttis(100);
  const auto last = testbed.master().agent_subframe(enb.agent_id);
  // Master trails the agent by at most a couple of TTIs at zero latency.
  EXPECT_GT(last, testbed.sim().current_tti() - 3);
  EXPECT_LE(last, testbed.sim().current_tti());
}

TEST(MasterEndToEnd, LatencyDelaysMasterView) {
  Testbed testbed(scenario::per_tti_master_config());
  auto s = spec();
  s.uplink.delay = sim::from_ms(20);
  s.downlink.delay = sim::from_ms(20);
  auto& enb = testbed.add_enb(s);
  testbed.run_ttis(200);
  const auto lag = testbed.sim().current_tti() - testbed.master().agent_subframe(enb.agent_id);
  EXPECT_GE(lag, 20);
  EXPECT_LE(lag, 25);
}

TEST(MasterEndToEnd, EventsDispatchToApps) {
  std::vector<std::string> log;
  Testbed testbed(scenario::per_tti_master_config());
  testbed.master().add_app(std::make_unique<RecordingApp>("watcher", 100, log));
  testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(15));
  testbed.run_ttis(60);

  int rach_events = 0;
  int attach_events = 0;
  for (const auto& entry : log) {
    if (entry == event_entry("watcher", proto::EventType::rach_attempt)) ++rach_events;
    if (entry == event_entry("watcher", proto::EventType::ue_attach)) ++attach_events;
  }
  EXPECT_EQ(rach_events, 1);
  EXPECT_EQ(attach_events, 1);
}

TEST(MasterEndToEnd, EchoEstimatesRtt) {
  ctrl::MasterConfig config = scenario::per_tti_master_config();
  config.echo_period_cycles = 50;
  Testbed testbed(config);
  auto s = spec();
  s.uplink.delay = sim::from_ms(10);
  s.downlink.delay = sim::from_ms(10);
  auto& enb = testbed.add_enb(s);
  testbed.run_ttis(300);
  const auto* agent = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(agent, nullptr);
  EXPECT_NEAR(agent->rtt_estimate_us, 20'000.0, 3'000.0);
}

TEST(MasterEndToEnd, PauseAppStopsItsCycles) {
  std::vector<std::string> log;
  Testbed testbed;
  testbed.master().add_app(std::make_unique<RecordingApp>("pausable", 100, log));
  testbed.add_enb(spec());
  testbed.run_ttis(10);
  const auto before = log.size();
  ASSERT_TRUE(testbed.master().pause_app("pausable").ok());
  testbed.run_ttis(10);
  EXPECT_EQ(log.size(), before);
  ASSERT_TRUE(testbed.master().resume_app("pausable").ok());
  testbed.run_ttis(10);
  EXPECT_GT(log.size(), before);
}

TEST(MasterEndToEnd, RxAccountingSeesStatsDominance) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  for (int i = 0; i < 8; ++i) testbed.add_ue(0, cqi_ue(10));
  testbed.run_ttis(200);

  const auto& rx = testbed.master().rx_accounting(enb.agent_id);
  EXPECT_GT(rx.bytes(proto::MessageCategory::stats), rx.bytes(proto::MessageCategory::sync));
  EXPECT_GT(rx.bytes(proto::MessageCategory::sync),
            rx.bytes(proto::MessageCategory::agent_management));
  // Agent tx accounting and master rx accounting must agree.
  const auto& tx = enb.agent->tx_accounting();
  EXPECT_EQ(tx.bytes(proto::MessageCategory::stats), rx.bytes(proto::MessageCategory::stats));
}

TEST(MasterEndToEnd, HotColumnsMirrorUeStats) {
  // The SoA hot-stat columns (docs/wire_fastpath.md) must stay in lockstep
  // with the UE rows: populated by stats ingest, row removed on detach.
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec(1));
  testbed.add_enb(spec(2));
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);

  const auto* agent = testbed.master().rib().find_agent(enb.agent_id);
  ASSERT_NE(agent, nullptr);
  ASSERT_EQ(agent->hot.size(), 1u);
  EXPECT_EQ(agent->hot.rnti[0], rnti);
  EXPECT_EQ(agent->hot.wb_cqi[0], 12);
  const auto* ue = testbed.master().rib().find_agent(enb.agent_id)->find_ue(rnti);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(agent->hot.rlc_queue_bytes[0], ue->stats.rlc_queue_bytes);

  proto::HandoverCommand command;
  command.rnti = rnti;
  command.source_cell = 1;
  command.target_cell = 2;
  ASSERT_TRUE(testbed.master().send_handover(enb.agent_id, command).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(testbed.master().rib().find_agent(enb.agent_id)->find_ue(rnti), nullptr);
  EXPECT_EQ(agent->hot.size(), 0u);
}

TEST(MasterEndToEnd, RibTracksDetachOnHandoverEvent) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec(1));
  testbed.add_enb(spec(2));
  const auto rnti = testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(60);
  ASSERT_NE(testbed.master().rib().find_agent(enb.agent_id)->find_ue(rnti), nullptr);

  proto::HandoverCommand command;
  command.rnti = rnti;
  command.source_cell = 1;
  command.target_cell = 2;
  ASSERT_TRUE(testbed.master().send_handover(enb.agent_id, command).ok());
  testbed.run_ttis(10);
  EXPECT_EQ(testbed.enb(0).data_plane->ue_count(), 0u);
  EXPECT_EQ(testbed.master().rib().find_agent(enb.agent_id)->find_ue(rnti), nullptr);
}

/// One agent wired to a bare ShardCore over a sim link: the test plays the
/// agent and sends raw protocol messages; each send is applied and published.
struct RawAgentLink {
  static MasterConfig config() {
    MasterConfig c;
    c.auto_configure = false;
    c.echo_period_cycles = 0;
    return c;
  }

  sim::Simulator sim;
  ShardCore core{sim, config()};
  net::SimTransportPair pair = net::make_sim_transport_pair(sim);
  AgentId id = core.add_agent(*pair.a);

  RawAgentLink() {
    proto::Hello hello;
    hello.enb_id = 1;
    hello.name = "raw";
    send(hello);
  }
  template <typename M>
  void send(const M& message) {
    (void)pair.b->send(net::TrafficClass::session, proto::pack(message));
    sim.run();
    core.run_cycle();
  }
  void send_ue_event(proto::EventType type, lte::Rnti rnti, lte::CellId cell) {
    proto::EventNotification event;
    event.event = type;
    event.rnti = rnti;
    event.cell_id = cell;
    send(event);
  }
  const AgentNode& node() const { return *core.rib().find_agent(id); }
};

proto::UeStatsReport ue_report(lte::Rnti rnti, std::uint8_t cqi, std::uint32_t queue_bytes) {
  proto::UeStatsReport report;
  report.rnti = rnti;
  report.wb_cqi = cqi;
  report.rlc_queue_bytes = queue_bytes;
  return report;
}

TEST(MasterEndToEnd, UeReportedBeforeItsConfigIsStoredOnce) {
  // After a cold master restart or a re-homing, stats can reach the RIB
  // before the configuration that names the UE's cell.
  RawAgentLink link;
  proto::StatsReply stats;
  stats.ue_reports.push_back(ue_report(70, 9, 1200));
  proto::CellStatsReport cell_report;
  cell_report.cell_id = 5;
  stats.cell_reports.push_back(cell_report);
  link.send(stats);

  proto::EnbConfigReply enb;
  enb.enb_id = 1;
  enb.cells.push_back(proto::CellConfigMsg{.cell_id = 5});
  link.send(enb);
  proto::UeConfigReply ues;
  ues.ues.push_back(proto::UeConfigMsg{.rnti = 70, .primary_cell = 5});
  link.send(ues);

  EXPECT_EQ(link.node().ues.size(), 1u);
  EXPECT_EQ(link.node().cells.size(), 1u);
  const auto summaries = summarize_ues(*link.core.rib_snapshot());
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].cell, 5);
  EXPECT_EQ(summaries[0].cqi, 9);
  EXPECT_EQ(summaries[0].queue_bytes, 1200u);
}

TEST(MasterEndToEnd, HotColumnsStayRowAlignedThroughDetachAndReattach) {
  RawAgentLink link;
  const auto expect_aligned = [&](std::size_t rows) {
    const AgentNode& node = link.node();
    ASSERT_EQ(node.ues.size(), rows);
    ASSERT_EQ(node.hot.size(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(node.hot.rnti[i], node.ues[i].rnti) << "row " << i;
      EXPECT_EQ(node.hot.wb_cqi[i], node.ues[i].stats.wb_cqi) << "row " << i;
      EXPECT_EQ(node.hot.rlc_queue_bytes[i], node.ues[i].stats.rlc_queue_bytes) << "row " << i;
      if (i > 0) {
        EXPECT_LT(node.ues[i - 1].rnti, node.ues[i].rnti);
      }
    }
  };
  for (const lte::Rnti rnti : {70, 71, 72}) {
    link.send_ue_event(proto::EventType::ue_attach, rnti, 1);
  }
  proto::StatsReply stats;
  stats.ue_reports = {ue_report(70, 7, 100), ue_report(71, 8, 200), ue_report(72, 9, 300)};
  link.send(stats);
  expect_aligned(3);

  link.send_ue_event(proto::EventType::ue_detach, 71, 1);
  expect_aligned(2);
  EXPECT_EQ(link.node().find_ue(71), nullptr);

  link.send_ue_event(proto::EventType::ue_attach, 71, 1);
  expect_aligned(3);
  stats.ue_reports = {ue_report(71, 12, 4096)};
  link.send(stats);
  expect_aligned(3);
  EXPECT_EQ(link.node().hot.wb_cqi[1], 12);
  EXPECT_EQ(link.node().find_ue(72)->stats.rlc_queue_bytes, 300u);

  // Out of RNTI order, with a new RNTI that lands before every row: each
  // report still reaches its own row.
  stats.ue_reports = {ue_report(72, 3, 30), ue_report(69, 4, 40), ue_report(71, 5, 50),
                      ue_report(70, 6, 60)};
  link.send(stats);
  expect_aligned(4);
  for (const auto& report : stats.ue_reports) {
    ASSERT_NE(link.node().find_ue(report.rnti), nullptr);
    EXPECT_EQ(link.node().find_ue(report.rnti)->stats.wb_cqi, report.wb_cqi);
  }
}

TEST(MasterEndToEnd, ReadsNeitherCloneNodesNorMoveTheVersion) {
  sim::Simulator sim;
  MasterConfig config = RawAgentLink::config();
  config.agent_timeout_us = 1'000'000;  // every cycle sweeps, and finds the agent fresh
  ShardCore core(sim, config);
  auto pair = net::make_sim_transport_pair(sim);
  const AgentId id = core.add_agent(*pair.a);
  const auto deliver = [&](const auto& message, std::uint32_t epoch) {
    proto::Envelope header;
    header.epoch = epoch;
    proto::WireEncoder enc;
    proto::encode_envelope(enc, header, message);
    (void)pair.b->send(net::TrafficClass::session, enc.take());
    sim.run();
    core.run_cycle();
  };
  proto::Hello hello;
  hello.enb_id = 1;
  hello.epoch = 5;
  deliver(hello, 5);
  const auto version = core.snapshot_version();
  const AgentNode* node = core.rib().find_agent(id);
  ASSERT_NE(node, nullptr);
  ASSERT_EQ(core.rib_snapshot()->find_agent(id), node) << "the publish froze the live node";

  // A reply from an older session is fenced, a send reads the session
  // epoch, and the liveness sweep reads the agent every cycle.
  proto::StatsReply stale;
  stale.ue_reports.push_back(ue_report(70, 9, 100));
  deliver(stale, 4);
  ASSERT_TRUE(core.request_stats(id, proto::StatsRequest{}).ok());
  core.run_cycle();

  EXPECT_EQ(core.stats().fenced_updates, 1u);
  EXPECT_EQ(core.snapshot_version(), version);
  EXPECT_EQ(core.rib().find_agent(id), node);
  EXPECT_EQ(core.rib_snapshot()->find_agent(id), node);
  EXPECT_EQ(node->find_ue(70), nullptr);
}

TEST(MasterEndToEnd, UndecodableBodyIsCountedAndDropped) {
  // A well-formed envelope whose StatsReply body is cut short: apply drops
  // it whole, counts it with the undecodable envelopes, and keeps the
  // session up.
  RawAgentLink link;
  proto::StatsReply stats;
  stats.ue_reports = {ue_report(70, 7, 100), ue_report(71, 8, 200)};
  link.send(stats);
  const auto errors = link.core.rx_decode_errors();

  // The first report (a new RNTI) is whole; the second runs past the end.
  proto::StatsReply next;
  next.ue_reports = {ue_report(72, 9, 300), ue_report(70, 15, 999)};
  proto::WireEncoder body;
  next.encode_body(body);
  proto::Envelope envelope;
  envelope.type = proto::MessageType::stats_reply;
  envelope.body.assign(body.bytes().begin(), body.bytes().end() - 3);
  ASSERT_TRUE(link.pair.b->send(net::TrafficClass::stats, envelope.encode()).ok());
  link.sim.run();
  link.core.run_cycle();

  EXPECT_EQ(link.core.rx_decode_errors(), errors + 1);
  const AgentNode& node = link.node();
  ASSERT_EQ(node.ues.size(), 2u);
  EXPECT_EQ(node.ues[0].rnti, 70);
  EXPECT_EQ(node.ues[0].stats.wb_cqi, 7);
  EXPECT_EQ(node.ues[0].stats.rlc_queue_bytes, 100u);
  EXPECT_EQ(node.ues[1].rnti, 71);
  EXPECT_EQ(node.ues[1].stats.wb_cqi, 8);
  EXPECT_EQ(node.state, SessionState::up);

  link.send(next);
  EXPECT_EQ(link.core.rx_decode_errors(), errors + 1);
  EXPECT_EQ(link.node().ues.size(), 3u);
}

// ---------------------------------------------------------- observability --

TEST(Observability, DisabledByDefaultHasNoInstrumentsOrTraces) {
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(50);
  EXPECT_EQ(testbed.master().metrics().size(), 0u);
  EXPECT_EQ(testbed.master().control_latency(enb.agent_id), nullptr);
}

/// The value of an unlabeled series in a Prometheus export.
double exported_value(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  ADD_FAILURE() << name << " not exported:\n" << text;
  return -1.0;
}

/// Every cycle times each stage once, obs on or off, and every reader — the
/// accessors and the exported series — reads that one table.
void expect_stage_table_times_every_cycle(int workers) {
  for (const bool obs : {true, false}) {
    SCOPED_TRACE("workers=" + std::to_string(workers) + " obs=" + (obs ? "on" : "off"));
    auto config = scenario::per_tti_master_config();
    config.obs.enabled = obs;
    config.task_manager.workers = workers;
    Testbed testbed(std::move(config));
    testbed.add_enb(spec());
    testbed.add_ue(0, cqi_ue(12));
    testbed.run_ttis(100);
    testbed.master().quiesce();

    const TaskManager& tm = testbed.master().task_manager();
    const CycleStages& stages = tm.stages();
    const auto cycles = static_cast<std::size_t>(tm.cycles_run());
    EXPECT_GE(cycles, 100u);
    for (const util::RunningStats* stage :
         {&stages.updater, &stages.publish, &stages.event, &stages.apps, &stages.flush}) {
      EXPECT_EQ(stage->count(), cycles);
      EXPECT_GE(stage->min(), 0.0);
    }
    // The publish is the tail of the updater slot, not a second clock.
    EXPECT_LE(stages.publish.total(), stages.updater.total());
    EXPECT_EQ(&testbed.master().snapshot_publish_us(), &stages.publish);
    EXPECT_EQ(&tm.updater_time_us(), &stages.updater);
    EXPECT_GT(testbed.master().stats().updates_applied, 0u);
    if (!obs) continue;

    // The exported stage series read the same table (to export precision).
    const std::string text = testbed.master().metrics().prometheus_text();
    const auto expect_exported = [&text](const char* name, double value) {
      EXPECT_NEAR(exported_value(text, name), value, 1e-5 * std::max(1.0, value)) << name;
    };
    expect_exported("cycle_updater_us_mean", stages.updater.mean());
    expect_exported("cycle_apps_us_max", stages.apps.max());
    expect_exported("snapshot_publish_us_mean", stages.publish.mean());
  }
}

TEST(Observability, CycleTracesRecordEveryStageInline) {
  expect_stage_table_times_every_cycle(0);
}

TEST(Observability, CycleTracesRecordWithPipelinedWorkers) {
  expect_stage_table_times_every_cycle(2);
}

TEST(Observability, RegistryExportsMigratedCounters) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(spec());
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(100);

  auto& metrics = testbed.master().metrics();
  EXPECT_GT(metrics.size(), 30u);
  const std::string json = metrics.json();
  EXPECT_NE(json.find("\"cycles_run\":"), std::string::npos);
  EXPECT_NE(json.find("\"updates_applied\":"), std::string::npos);
  EXPECT_NE(json.find("signaling_rx_bytes{agent=1,category=stats}"), std::string::npos);
  EXPECT_NE(json.find("\"overload_state\":"), std::string::npos);
  // Probes track the live values, not a snapshot from registration time.
  const auto updates = testbed.master().stats().updates_applied;
  EXPECT_NE(json.find("\"updates_applied\":" + std::to_string(updates)),
            std::string::npos)
      << json;
  // Decode-anomaly accounting (docs/wire_fastpath.md) is exported alongside
  // the hard decode-error counter, so dropped-but-recognised fields (e.g.
  // trailing BSR entries) are visible to operators rather than silent.
  const std::string text = metrics.prometheus_text();
  EXPECT_NE(text.find("proto_decode_anomalies"), std::string::npos) << text;
  EXPECT_NE(text.find("rx_decode_errors"), std::string::npos) << text;
  (void)enb;
}

TEST(Observability, TimestampEchoMeasuresControlLatency) {
  auto config = scenario::per_tti_master_config();
  config.obs.enabled = true;
  Testbed testbed(std::move(config));
  auto s = spec();
  s.uplink.delay = sim::from_ms(5);
  s.downlink.delay = sim::from_ms(5);
  auto& enb = testbed.add_enb(s);
  testbed.add_ue(0, cqi_ue(12));
  testbed.run_ttis(300);

  const auto* latency = testbed.master().control_latency(enb.agent_id);
  ASSERT_NE(latency, nullptr);
  ASSERT_GT(latency->count(), 0u);
  // Round trip crosses the 5 ms downlink and the 5 ms uplink, so every
  // sample is at least 10 ms; the cycle-boundary wait keeps it bounded.
  EXPECT_GE(latency->p50(), 10'000.0);
  EXPECT_LE(latency->p50(), 40'000.0);
}

TEST(Observability, NoLatencySamplesAtZeroDelayWithoutEnable) {
  // The echo only runs when the master stamps ts_us, i.e. never when obs
  // is off -- agents on a disabled master never see a timestamp to echo.
  Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(spec());
  testbed.run_ttis(100);
  EXPECT_EQ(testbed.master().control_latency(enb.agent_id), nullptr);
}

}  // namespace
}  // namespace flexran::ctrl
