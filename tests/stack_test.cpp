#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "lte/tables.h"
#include "stack/enodeb.h"
#include "stack/epc.h"
#include "stack/rlc.h"

namespace flexran::stack {
namespace {

using lte::Rnti;

// -------------------------------------------------------------------- RLC --

TEST(Rlc, EnqueueDequeueWithOverhead) {
  RlcQueue queue;
  queue.enqueue(lte::kDefaultDrb, 1000);
  EXPECT_EQ(queue.total_bytes(), 1000u);
  // 1000 app bytes require 1000*8*1.08 bits.
  const auto drained = queue.dequeue(queue.bits_needed());
  EXPECT_EQ(drained, 1000u);
  EXPECT_TRUE(queue.empty());
}

TEST(Rlc, PartialDequeueSegmentsPackets) {
  RlcQueue queue;
  queue.enqueue(lte::kDefaultDrb, 1000);
  const auto first = queue.dequeue(4000);  // ~462 bytes of budget
  EXPECT_GT(first, 400u);
  EXPECT_LT(first, 500u);
  EXPECT_EQ(queue.total_bytes(), 1000u - first);
  const auto rest = queue.dequeue(1'000'000);
  EXPECT_EQ(first + rest, 1000u);
}

TEST(Rlc, SrbDrainsBeforeDrb) {
  RlcQueue queue;
  queue.enqueue(lte::kDefaultDrb, 500);
  queue.enqueue(lte::kSrb1, 100);
  // Budget for ~150 bytes: SRB (lcid 1) must drain first.
  (void)queue.dequeue(150 * 9);
  EXPECT_EQ(queue.bytes_for_lc_group(default_lc_group(lte::kSrb1)), 0u);
  EXPECT_GT(queue.bytes_for_lc_group(default_lc_group(lte::kDefaultDrb)), 0u);
}

TEST(Rlc, LcGroupAccounting) {
  RlcQueue queue;
  queue.enqueue(lte::kSrb1, 100);
  queue.enqueue(lte::kDefaultDrb, 900);
  EXPECT_EQ(queue.bytes_for_lc_group(0), 100u);
  EXPECT_EQ(queue.bytes_for_lc_group(2), 900u);
  EXPECT_EQ(queue.bytes_for_lc_group(1), 0u);
}

TEST(Rlc, DequeueLcidTouchesOnlyThatChannel) {
  RlcQueue queue;
  queue.enqueue(lte::kSrb1, 100);
  queue.enqueue(lte::kDefaultDrb, 100);
  EXPECT_EQ(queue.dequeue_lcid(lte::kSrb1, 1'000'000), 100u);
  EXPECT_EQ(queue.bytes_for_lc_group(default_lc_group(lte::kDefaultDrb)), 100u);
  EXPECT_EQ(queue.total_bytes(), 100u);
}

// -------------------------------------------------------------- test rig ---

/// Listener that records events and runs a pluggable per-TTI scheduler.
class TestListener : public EnodebDataPlane::Listener {
 public:
  std::function<void(std::int64_t)> scheduler;
  std::vector<Rnti> rachs;
  std::vector<Rnti> attached;
  std::vector<Rnti> detached;
  std::vector<Rnti> scheduling_requests;

  void on_subframe_start(std::int64_t subframe) override {
    if (scheduler) scheduler(subframe);
  }
  void on_rach(Rnti rnti, std::int64_t) override { rachs.push_back(rnti); }
  void on_ue_attached(Rnti rnti, std::int64_t) override { attached.push_back(rnti); }
  void on_ue_detached(Rnti rnti, std::int64_t) override { detached.push_back(rnti); }
  void on_scheduling_request(Rnti rnti, std::int64_t) override {
    scheduling_requests.push_back(rnti);
  }
};

lte::EnbConfig default_enb(lte::EnbId id = 1) {
  lte::EnbConfig config;
  config.enb_id = id;
  config.cells[0].cell_id = id;
  return config;
}

UeProfile fixed_cqi_ue(int cqi, int ul_cqi = 8) {
  UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.ul_cqi = ul_cqi;
  return profile;
}

/// Simple greedy scheduler used by the data-plane tests: gives all PRBs to
/// the first UE that needs them (DL) and all UL PRBs to the first UE with
/// UL data.
void greedy_schedule(EnodebDataPlane& enb, std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = enb.cell_id();
  decision.subframe = subframe;
  const int prbs = enb.config().cells[0].dl_prbs();
  for (const auto& info : enb.scheduler_view()) {
    if (decision.dl.empty() && (info.dl_queue_bytes > 0 || info.pending_dl_retx > 0)) {
      lte::DlDci dci;
      dci.rnti = info.rnti;
      dci.rbs.set_range(0, prbs);
      dci.mcs = lte::cqi_to_mcs(std::max(info.cqi, 1));
      decision.dl.push_back(dci);
    }
    if (decision.ul.empty() && info.ul_buffer_bytes > 0) {
      lte::UlDci dci;
      dci.rnti = info.rnti;
      dci.rbs.set_range(0, prbs);
      dci.mcs = lte::cqi_to_mcs(std::max(info.ul_cqi, 1));
      decision.ul.push_back(dci);
    }
  }
  if (!decision.empty()) {
    ASSERT_TRUE(enb.apply_scheduling_decision(decision).ok());
  }
}

/// Drives subframe_begin/subframe_end for `ttis` TTIs.
void run_ttis(sim::Simulator& sim, EnodebDataPlane& enb, int ttis) {
  for (int i = 0; i < ttis; ++i) {
    const std::int64_t subframe = sim.current_tti() + 1;
    sim.run_until(subframe * sim::kTtiUs);
    enb.subframe_begin(subframe);
    enb.subframe_end(subframe);
  }
}

// ---------------------------------------------------------------- attach ---

TEST(Enodeb, UeAttachesWhenScheduled) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);

  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15));
  EXPECT_EQ(enb.ue(rnti)->rrc_state, RrcState::idle);
  run_ttis(simulator, enb, 20);

  ASSERT_EQ(listener.rachs.size(), 1u);
  ASSERT_EQ(listener.attached.size(), 1u);
  EXPECT_EQ(listener.attached[0], rnti);
  EXPECT_TRUE(enb.ue(rnti)->connected());
}

TEST(Enodeb, UeNeverAttachesWithoutScheduler) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;  // no scheduler
  enb.set_listener(&listener);
  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 100);
  EXPECT_FALSE(enb.ue(rnti)->connected());
  EXPECT_TRUE(listener.attached.empty());
}

TEST(Enodeb, AttachTimesOutAndRetriesRach) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  enb.set_listener(&listener);
  enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, static_cast<int>(kAttachTimeoutTtis) + 100);
  EXPECT_GE(listener.rachs.size(), 2u);  // initial RACH plus at least one retry
}

TEST(Enodeb, RntiAssignmentIsUniqueAndStable) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  const Rnti a = enb.add_ue(fixed_cqi_ue(10));
  const Rnti b = enb.add_ue(fixed_cqi_ue(10));
  EXPECT_NE(a, b);
  EXPECT_NE(a, lte::kInvalidRnti);
  EXPECT_EQ(enb.ue_count(), 2u);
  ASSERT_TRUE(enb.trigger_handover(a).ok());
  EXPECT_EQ(enb.ue_count(), 1u);
  EXPECT_FALSE(enb.trigger_handover(a).ok());
}

// ------------------------------------------------------------- data flow ---

TEST(Enodeb, DownlinkDeliveryAfterHarqDelay) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);
  std::uint64_t delivered = 0;
  enb.set_delivery_callback([&](Rnti, std::uint32_t bytes, lte::Direction dir) {
    if (dir == lte::Direction::downlink) delivered += bytes;
  });

  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 20);
  const std::uint64_t after_attach = delivered;

  enb.enqueue_dl(rnti, lte::kDefaultDrb, 3000);
  // One TTI to transmit + 4 TTIs HARQ feedback delay.
  run_ttis(simulator, enb, 2);
  EXPECT_EQ(delivered, after_attach);  // not yet credited
  run_ttis(simulator, enb, 4);
  EXPECT_EQ(delivered - after_attach, 3000u);
  EXPECT_EQ(enb.ue(rnti)->dl_queue.total_bytes(), 0u);
}

TEST(Enodeb, DownlinkThroughputMatchesCalibration) {
  // Saturated CQI-15 UE on 50 PRBs must see ~25 Mb/s of application
  // throughput (Fig. 6b's downlink speedtest).
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);
  std::uint64_t delivered = 0;
  enb.set_delivery_callback([&](Rnti, std::uint32_t bytes, lte::Direction dir) {
    if (dir == lte::Direction::downlink) delivered += bytes;
  });

  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 20);
  delivered = 0;
  const int kTtis = 2000;
  for (int i = 0; i < kTtis; ++i) {
    if (enb.ue(rnti)->dl_queue.total_bytes() < 100'000) {
      enb.enqueue_dl(rnti, lte::kDefaultDrb, 50'000);
    }
    run_ttis(simulator, enb, 1);
  }
  const double mbps = static_cast<double>(delivered) * 8.0 / (kTtis / 1000.0) / 1e6;
  EXPECT_GT(mbps, 21.0);
  EXPECT_LT(mbps, 27.0);
}

TEST(Enodeb, AggressiveMcsTriggersHarqRetransmissions) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb(), nullptr, /*seed=*/3);
  TestListener listener;
  // Scheduler that deliberately overshoots MCS by 2 (aggressive link
  // adaptation): expect NACKs, retransmissions, and eventual delivery.
  listener.scheduler = [&](std::int64_t sf) {
    lte::SchedulingDecision decision;
    decision.cell_id = enb.cell_id();
    decision.subframe = sf;
    for (const auto& info : enb.scheduler_view()) {
      if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
      lte::DlDci dci;
      dci.rnti = info.rnti;
      dci.rbs.set_range(0, 50);
      dci.mcs = std::min(lte::cqi_to_mcs(info.cqi) + 2, lte::kMaxMcs);
      decision.dl.push_back(dci);
      break;
    }
    if (!decision.empty()) {
      ASSERT_TRUE(enb.apply_scheduling_decision(decision).ok());
    }
  };
  enb.set_listener(&listener);
  const Rnti rnti = enb.add_ue(fixed_cqi_ue(8));
  run_ttis(simulator, enb, 20);
  for (int i = 0; i < 1000; ++i) {
    if (enb.ue(rnti)->dl_queue.total_bytes() < 20'000) {
      enb.enqueue_dl(rnti, lte::kDefaultDrb, 20'000);
    }
    run_ttis(simulator, enb, 1);
  }
  const UeContext* ue = enb.ue(rnti);
  ASSERT_NE(ue, nullptr);
  EXPECT_TRUE(ue->connected());
  EXPECT_GT(ue->dl_blocks_nacked, 10u);
  EXPECT_GT(ue->dl_blocks_acked, 10u);
}

TEST(Enodeb, UplinkFlowWithSchedulingRequest) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);
  std::uint64_t ul_delivered = 0;
  enb.set_delivery_callback([&](Rnti, std::uint32_t bytes, lte::Direction dir) {
    if (dir == lte::Direction::uplink) ul_delivered += bytes;
  });

  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15, /*ul_cqi=*/8));
  run_ttis(simulator, enb, 20);
  ASSERT_TRUE(enb.ue(rnti)->connected());

  enb.enqueue_ul(rnti, 5000);
  EXPECT_EQ(listener.scheduling_requests.size(), 1u);
  run_ttis(simulator, enb, 20);
  EXPECT_EQ(ul_delivered, 5000u);
  EXPECT_EQ(enb.ue(rnti)->ul_bytes_received, 5000u);
}

// -------------------------------------------------------------- decisions --

TEST(Enodeb, RejectsDecisionForWrongSubframe) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  enb.set_listener(&listener);
  enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 2);
  lte::SchedulingDecision decision;
  decision.cell_id = enb.cell_id();
  decision.subframe = enb.current_subframe() + 5;  // future subframe
  EXPECT_FALSE(enb.apply_scheduling_decision(decision).ok());
  EXPECT_EQ(enb.grants_rejected(), 1u);
}

TEST(Enodeb, RejectsOverlappingAllocations) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  TestListener attach_listener;
  attach_listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&attach_listener);
  const Rnti a = enb.add_ue(fixed_cqi_ue(15));
  const Rnti b = enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 30);
  ASSERT_TRUE(enb.ue(a)->connected());
  ASSERT_TRUE(enb.ue(b)->connected());
  enb.set_listener(&listener);  // stop auto-scheduling

  enb.enqueue_dl(a, lte::kDefaultDrb, 1000);
  enb.enqueue_dl(b, lte::kDefaultDrb, 1000);
  run_ttis(simulator, enb, 1);
  const auto rejected_before = enb.grants_rejected();

  lte::SchedulingDecision decision;
  decision.cell_id = enb.cell_id();
  decision.subframe = enb.current_subframe();
  lte::DlDci dci_a;
  dci_a.rnti = a;
  dci_a.rbs.set_range(0, 30);
  dci_a.mcs = 28;
  lte::DlDci dci_b;
  dci_b.rnti = b;
  dci_b.rbs.set_range(20, 30);  // overlaps PRBs 20..29
  dci_b.mcs = 28;
  decision.dl = {dci_a, dci_b};
  ASSERT_TRUE(enb.apply_scheduling_decision(decision).ok());
  EXPECT_EQ(enb.grants_rejected(), rejected_before + 1);
  // Only UE a transmitted.
  EXPECT_EQ(enb.dl_prbs_used_last_tti(), 30u);
}

TEST(Enodeb, AbsMutingRejectsDownlink) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  std::uint64_t scheduled_subframes = 0;
  listener.scheduler = [&](std::int64_t sf) {
    if (enb.muted_in(sf)) return;  // a well-behaved eICIC scheduler skips ABS
    greedy_schedule(enb, sf);
    ++scheduled_subframes;
  };
  enb.set_listener(&listener);
  enb.configure_abs(lte::AbsPattern::per_frame(4), /*mute=*/true);

  const Rnti rnti = enb.add_ue(fixed_cqi_ue(15));
  run_ttis(simulator, enb, 40);
  ASSERT_TRUE(enb.ue(rnti)->connected());

  // A rogue decision during an ABS must be rejected by the data plane.
  while (!enb.is_abs(enb.current_subframe() + 1)) run_ttis(simulator, enb, 1);
  run_ttis(simulator, enb, 1);
  ASSERT_TRUE(enb.muted_in(enb.current_subframe()));
  lte::SchedulingDecision decision;
  decision.cell_id = enb.cell_id();
  decision.subframe = enb.current_subframe();
  lte::DlDci dci;
  dci.rnti = rnti;
  dci.rbs.set_range(0, 10);
  dci.mcs = 10;
  decision.dl.push_back(dci);
  enb.enqueue_dl(rnti, lte::kDefaultDrb, 100);
  EXPECT_FALSE(enb.apply_scheduling_decision(decision).ok());
}

// ------------------------------------------------------------------ stats --

TEST(Enodeb, StatsReportsReflectState) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);
  const Rnti rnti = enb.add_ue(fixed_cqi_ue(12));
  run_ttis(simulator, enb, 20);
  enb.set_listener(nullptr);  // freeze scheduling so the queue persists

  enb.enqueue_dl(rnti, lte::kDefaultDrb, 7777);
  run_ttis(simulator, enb, 1);
  proto::UeStatsReport stats;
  enb.ue_stats(rnti, stats);
  EXPECT_EQ(stats.rnti, rnti);
  EXPECT_EQ(stats.rlc_queue_bytes, 7777u);
  EXPECT_EQ(stats.bsr_bytes[2], 7777u);  // DRB -> LCG 2
  EXPECT_EQ(stats.wb_cqi, 12);

  const auto cell = enb.cell_stats();
  EXPECT_EQ(cell.cell_id, enb.cell_id());
  EXPECT_EQ(cell.active_ues, 1u);
}

TEST(Enodeb, SchedulerViewExposesConnectedUes) {
  sim::Simulator simulator;
  EnodebDataPlane enb(simulator, default_enb());
  TestListener listener;
  listener.scheduler = [&](std::int64_t sf) { greedy_schedule(enb, sf); };
  enb.set_listener(&listener);
  const Rnti rnti = enb.add_ue(fixed_cqi_ue(9));
  run_ttis(simulator, enb, 20);
  enb.enqueue_dl(rnti, lte::kDefaultDrb, 500);
  enb.set_listener(nullptr);
  run_ttis(simulator, enb, 1);

  const auto view = enb.scheduler_view();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].rnti, rnti);
  EXPECT_TRUE(view[0].connected);
  EXPECT_EQ(view[0].dl_queue_bytes, 500u);
  EXPECT_EQ(view[0].cqi, 9);
  EXPECT_GT(view[0].dl_bits_needed, 500 * 8);
}

// ------------------------------------------------------------ interference --

TEST(Enodeb, InterferenceModeCqiRespondsToNeighborActivity) {
  sim::Simulator simulator;
  phy::RadioEnvironment env;
  EnodebDataPlane macro(simulator, default_enb(1), &env);
  EnodebDataPlane pico(simulator, default_enb(2), &env);

  TestListener macro_listener;
  macro_listener.scheduler = [&](std::int64_t sf) { greedy_schedule(macro, sf); };
  macro.set_listener(&macro_listener);
  TestListener pico_listener;
  pico_listener.scheduler = [&](std::int64_t sf) { greedy_schedule(pico, sf); };
  pico.set_listener(&pico_listener);

  // Macro UE near its tower; pico UE at the cell edge, hammered by the macro.
  UeProfile macro_ue;
  macro_ue.radio_profile = phy::UeRadioProfile::from_distances(
      1, phy::kMacroTxPowerDbm, 0.1, {{2, {phy::kPicoTxPowerDbm, 0.5}}});
  const Rnti m = macro.add_ue(std::move(macro_ue));
  UeProfile pico_ue;
  pico_ue.radio_profile = phy::UeRadioProfile::from_distances(
      2, phy::kPicoTxPowerDbm, 0.08, {{1, {phy::kMacroTxPowerDbm, 0.15}}});
  const Rnti p = pico.add_ue(std::move(pico_ue));

  auto run_both = [&](int ttis) {
    for (int i = 0; i < ttis; ++i) {
      const std::int64_t sf = simulator.current_tti() + 1;
      simulator.run_until(sf * sim::kTtiUs);
      macro.subframe_begin(sf);  // macro first: pico sees macro's activity
      pico.subframe_begin(sf);
      macro.subframe_end(sf);
      pico.subframe_end(sf);
    }
  };

  run_both(60);
  ASSERT_TRUE(pico.ue(p)->connected());

  // Saturate the macro: its cell transmits every subframe.
  for (int i = 0; i < 50; ++i) macro.enqueue_dl(m, lte::kDefaultDrb, 40000);
  run_both(5);
  const int cqi_under_interference = pico.ue(p)->reported_cqi;
  const int cqi_protected = pico.ue(p)->reported_cqi_protected;
  EXPECT_LT(cqi_under_interference, 5);
  EXPECT_GT(cqi_protected, 10);

  // Macro drains and goes quiet; the pico UE's CQI recovers.
  run_both(3000);
  EXPECT_EQ(macro.ue(m)->dl_queue.total_bytes(), 0u);
  run_both(3);
  EXPECT_GT(pico.ue(p)->reported_cqi, 10);
}

// -------------------------------------------------------------------- EPC --

TEST(Epc, RoutesDownlinkAndMovesBearers) {
  sim::Simulator simulator;
  EnodebDataPlane enb1(simulator, default_enb(1));
  EnodebDataPlane enb2(simulator, default_enb(2));
  const Rnti r1 = enb1.add_ue(fixed_cqi_ue(10));
  const Rnti r2 = enb2.add_ue(fixed_cqi_ue(10));

  EpcStub epc;
  epc.register_bearer(100, &enb1, r1);
  ASSERT_TRUE(epc.downlink(100, 500).ok());
  EXPECT_EQ(enb1.ue(r1)->dl_queue.total_bytes(), 500u);
  EXPECT_FALSE(epc.downlink(999, 500).ok());

  ASSERT_TRUE(epc.move_bearer(100, &enb2, r2).ok());
  ASSERT_TRUE(epc.downlink(100, 300).ok());
  EXPECT_EQ(enb2.ue(r2)->dl_queue.total_bytes(), 300u);
  EXPECT_EQ(epc.downlink_bytes(), 800u);
}

TEST(Epc, HandoverMovesUeContext) {
  sim::Simulator simulator;
  EnodebDataPlane source(simulator, default_enb(1));
  EnodebDataPlane target(simulator, default_enb(2));
  TestListener source_listener;
  source_listener.scheduler = [&](std::int64_t sf) { greedy_schedule(source, sf); };
  source.set_listener(&source_listener);
  const Rnti rnti = source.add_ue(fixed_cqi_ue(11));
  run_ttis(simulator, source, 20);
  ASSERT_TRUE(source.ue(rnti)->connected());

  auto moved = source.trigger_handover(rnti);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(source.ue_count(), 0u);
  ASSERT_EQ(source_listener.detached.size(), 1u);

  const Rnti new_rnti = target.add_ue(std::move(*moved));
  EXPECT_EQ(target.ue_count(), 1u);
  EXPECT_EQ(target.ue(new_rnti)->config.primary_cell, target.cell_id());
}

}  // namespace
}  // namespace flexran::stack
