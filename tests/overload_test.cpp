// Overload protection (docs/overload_protection.md): the bounded
// class-aware queue, the sliding-window overload watchdog, and the
// end-to-end graceful-degradation contract -- a report flood sheds only
// statistics (never commands or session traffic), queue memory stays
// bounded, report periods are throttled, and everything recovers when the
// flood clears.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/reports.h"
#include "controller/overload.h"
#include "net/flow_control.h"
#include "scenario/fault_injector.h"
#include "scenario/testbed.h"

namespace flexran {
namespace {

using net::ClassedQueue;
using net::QueueBudget;
using net::TrafficClass;
using ctrl::OverloadMonitor;
using ctrl::OverloadSample;
using ctrl::OverloadState;

// ------------------------------------------------------------ ClassedQueue --

/// Enqueues a copy of `value`.
bool push(ClassedQueue<int>& queue, TrafficClass cls, std::size_t bytes, std::uint64_t key,
          int value) {
  return queue.swap_in(cls, bytes, key, value);
}

/// The oldest entry's value, swapped out into a fresh slot.
std::optional<int> pop(ClassedQueue<int>& queue) {
  int slot = 0;
  if (!queue.swap_out(slot)) return std::nullopt;
  return slot;
}

TEST(ClassedQueue, WithoutBudgetBehavesLikePlainFifo) {
  ClassedQueue<int> queue;
  // Same coalesce key twice: without a budget nothing coalesces.
  EXPECT_TRUE(push(queue, TrafficClass::stats, 100, /*coalesce_key=*/7, 1));
  EXPECT_TRUE(push(queue, TrafficClass::command, 50, 0, 2));
  EXPECT_TRUE(push(queue, TrafficClass::stats, 100, /*coalesce_key=*/7, 3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.bytes(), 250u);
  EXPECT_EQ(queue.total_shed(), 0u);
  EXPECT_EQ(queue.total_coalesced(), 0u);
  EXPECT_EQ(pop(queue), 1);
  EXPECT_EQ(pop(queue), 2);
  EXPECT_EQ(pop(queue), 3);
  EXPECT_FALSE(pop(queue).has_value());
}

TEST(ClassedQueue, ShedsLowestClassFirstNeverCommands) {
  ClassedQueue<int> queue;
  queue.set_budget({/*max_messages=*/3, /*max_bytes=*/0});
  EXPECT_TRUE(push(queue, TrafficClass::command, 10, 0, 1));
  EXPECT_TRUE(push(queue, TrafficClass::event, 10, 0, 2));
  EXPECT_TRUE(push(queue, TrafficClass::sync, 10, 0, 3));
  // Over budget: stats is the lowest class present -> it goes first, even
  // though it is the entry just pushed.
  EXPECT_FALSE(push(queue, TrafficClass::stats, 10, 0, 4));
  EXPECT_EQ(queue.counters(TrafficClass::stats).shed, 1u);
  // Next overflow (a command) sheds sync before event.
  EXPECT_TRUE(push(queue, TrafficClass::command, 10, 0, 5));
  EXPECT_EQ(queue.counters(TrafficClass::sync).shed, 1u);
  EXPECT_TRUE(push(queue, TrafficClass::command, 10, 0, 6));
  EXPECT_EQ(queue.counters(TrafficClass::event).shed, 1u);
  // Only unsheddable traffic left: admitted past the budget, counted.
  EXPECT_TRUE(push(queue, TrafficClass::session, 10, 0, 7));
  EXPECT_EQ(queue.budget_overflows(), 1u);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.counters(TrafficClass::command).shed, 0u);
  EXPECT_EQ(queue.counters(TrafficClass::session).shed, 0u);
  // Drain order stays FIFO among the survivors.
  EXPECT_EQ(pop(queue), 1);
  EXPECT_EQ(pop(queue), 5);
  EXPECT_EQ(pop(queue), 6);
  EXPECT_EQ(pop(queue), 7);
}

TEST(ClassedQueue, CoalescesSupersededEntriesInPlace) {
  ClassedQueue<int> queue;
  queue.set_budget({/*max_messages=*/10, /*max_bytes=*/0});
  EXPECT_TRUE(push(queue, TrafficClass::stats, 100, /*coalesce_key=*/42, 1));
  EXPECT_TRUE(push(queue, TrafficClass::command, 20, 0, 2));
  // Supersedes key 42: newest payload and byte count, original position.
  EXPECT_TRUE(push(queue, TrafficClass::stats, 140, /*coalesce_key=*/42, 3));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.bytes(), 160u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).coalesced, 1u);
  EXPECT_EQ(pop(queue), 3);  // still ahead of the command
  EXPECT_EQ(pop(queue), 2);
  // The key is released on pop: a new push with it queues fresh.
  EXPECT_TRUE(push(queue, TrafficClass::stats, 10, /*coalesce_key=*/42, 4));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(ClassedQueue, ByteBudgetShedsToo) {
  ClassedQueue<int> queue;
  queue.set_budget({/*max_messages=*/0, /*max_bytes=*/250});
  EXPECT_TRUE(push(queue, TrafficClass::stats, 100, 0, 1));
  EXPECT_TRUE(push(queue, TrafficClass::command, 100, 0, 2));
  // 300 bytes > 250: the oldest stats entry is shed, push survives.
  EXPECT_TRUE(push(queue, TrafficClass::stats, 100, 0, 3));
  EXPECT_EQ(queue.bytes(), 200u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).shed, 1u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).shed_bytes, 100u);
  EXPECT_EQ(pop(queue), 2);
  EXPECT_EQ(pop(queue), 3);
}

TEST(ClassedQueue, RemoveIfDropsMatchingAndReleasesKeys) {
  ClassedQueue<int> queue;
  queue.set_budget({/*max_messages=*/10, /*max_bytes=*/0});
  push(queue, TrafficClass::stats, 10, /*coalesce_key=*/1, 10);
  push(queue, TrafficClass::stats, 10, /*coalesce_key=*/2, 20);
  push(queue, TrafficClass::command, 10, 0, 30);
  EXPECT_EQ(queue.remove_if([](int v) { return v < 30; }), 2u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.bytes(), 10u);
  // Keys released by remove_if: pushing key 1 again must not coalesce into
  // a dangling iterator.
  EXPECT_TRUE(push(queue, TrafficClass::stats, 10, /*coalesce_key=*/1, 40));
  EXPECT_EQ(pop(queue), 30);
  EXPECT_EQ(pop(queue), 40);
}

TEST(ClassedQueue, TracksPeaks) {
  ClassedQueue<int> queue;
  queue.set_budget({/*max_messages=*/4, /*max_bytes=*/0});
  for (int i = 0; i < 8; ++i) push(queue, TrafficClass::stats, 25, 0, i);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.peak_messages(), 4u);
  EXPECT_EQ(queue.peak_bytes(), 100u);
  EXPECT_EQ(queue.total_shed(), 4u);
}

TEST(ClassedQueue, RecycledEntriesKeepOrderAndCounters) {
  // Values that own buffers, and three rounds over the same recycled
  // entries: coalescing hands the superseded value back to the caller's
  // slot, and shed and removed entries go back to the spare list without
  // leaking into what the next round pops.
  ClassedQueue<std::vector<int>> queue;
  queue.set_budget({/*max_messages=*/3, /*max_bytes=*/0});
  std::vector<int> slot;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int base = round * 10;
    slot = {base + 1};
    EXPECT_TRUE(queue.swap_in(TrafficClass::stats, 10, /*coalesce_key=*/5, slot));
    slot = {base + 2};
    EXPECT_TRUE(queue.swap_in(TrafficClass::command, 10, 0, slot));
    slot = {base + 3, base + 3};
    EXPECT_TRUE(queue.swap_in(TrafficClass::stats, 20, /*coalesce_key=*/5, slot));
    EXPECT_EQ(slot, std::vector<int>{base + 1}) << "the superseded value comes back";
    slot = {base + 4};
    EXPECT_TRUE(queue.swap_in(TrafficClass::event, 10, 0, slot));
    // Four entries past a budget of three: the coalesced stats entry goes.
    slot = {base + 5};
    EXPECT_TRUE(queue.swap_in(TrafficClass::command, 10, 0, slot));
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.bytes(), 30u);
    EXPECT_EQ(queue.remove_if([&](const std::vector<int>& v) { return v.front() == base + 4; }),
              1u);
    ASSERT_TRUE(queue.swap_out(slot));
    EXPECT_EQ(slot, std::vector<int>{base + 2});
    ASSERT_TRUE(queue.swap_out(slot));
    EXPECT_EQ(slot, std::vector<int>{base + 5});
    EXPECT_FALSE(queue.swap_out(slot));
    EXPECT_EQ(queue.bytes(), 0u);
  }
  EXPECT_EQ(queue.counters(TrafficClass::stats).enqueued, 6u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).coalesced, 3u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).shed, 3u);
  EXPECT_EQ(queue.counters(TrafficClass::stats).shed_bytes, 60u);
  EXPECT_EQ(queue.counters(TrafficClass::command).enqueued, 6u);
  EXPECT_EQ(queue.counters(TrafficClass::command).shed, 0u);
  EXPECT_EQ(queue.counters(TrafficClass::event).enqueued, 3u);
  EXPECT_EQ(queue.counters(TrafficClass::event).shed, 0u);
  EXPECT_EQ(queue.peak_messages(), 3u);
  // The coalesce key was released with the shed entry: it queues fresh.
  slot = {99};
  EXPECT_TRUE(queue.swap_in(TrafficClass::stats, 10, /*coalesce_key=*/5, slot));
  EXPECT_EQ(queue.size(), 1u);
}

// ---------------------------------------------------------- OverloadMonitor --

TEST(OverloadMonitor, EscalatesImmediatelyOnShed) {
  OverloadMonitor monitor;
  EXPECT_FALSE(monitor.observe({0.1, 0, false}));
  EXPECT_EQ(monitor.state(), OverloadState::normal);
  EXPECT_TRUE(monitor.observe({0.1, /*shed_delta=*/5, false}));
  EXPECT_EQ(monitor.state(), OverloadState::critical);
  EXPECT_EQ(monitor.transitions(), 1u);
}

TEST(OverloadMonitor, DepthAndSaturationWatermarks) {
  OverloadMonitor monitor;
  EXPECT_FALSE(monitor.observe({ctrl::kElevatedWatermark - 0.01, 0, false}));
  EXPECT_TRUE(monitor.observe({ctrl::kElevatedWatermark, 0, false}));
  EXPECT_EQ(monitor.state(), OverloadState::elevated);
  EXPECT_TRUE(monitor.observe({ctrl::kCriticalWatermark, 0, false}));
  EXPECT_EQ(monitor.state(), OverloadState::critical);

  OverloadMonitor saturated;
  EXPECT_TRUE(saturated.observe({0.0, 0, /*updater_saturated=*/true}));
  EXPECT_EQ(saturated.state(), OverloadState::elevated);
}

TEST(OverloadMonitor, DeEscalatesOneLevelPerRecoveryRun) {
  OverloadMonitor monitor;
  ASSERT_TRUE(monitor.observe({0.0, 10, false}));
  ASSERT_EQ(monitor.state(), OverloadState::critical);
  // The bad sample ages out of the window before the first recovery run
  // ends, so each level takes exactly one run of clean cycles.
  static_assert(ctrl::kOverloadWindowCycles < ctrl::kOverloadRecoveryCycles);
  const OverloadSample clean{0.0, 0, false};
  for (const OverloadState next : {OverloadState::elevated, OverloadState::normal}) {
    for (std::size_t cycle = 1; cycle < ctrl::kOverloadRecoveryCycles; ++cycle) {
      ASSERT_FALSE(monitor.observe(clean)) << "clean cycle " << cycle;
    }
    EXPECT_EQ(monitor.clean_cycles(), ctrl::kOverloadRecoveryCycles - 1);
    ASSERT_TRUE(monitor.observe(clean));
    EXPECT_EQ(monitor.state(), next);
    EXPECT_EQ(monitor.clean_cycles(), 0u);
  }
  EXPECT_EQ(monitor.transitions(), 3u);
  // A dirty cycle resets the clean run but does not re-escalate by itself
  // once the window is clean.
  monitor.observe({0.2, 0, false});
  EXPECT_EQ(monitor.state(), OverloadState::normal);
}

// ------------------------------------------------------------- end-to-end ---

scenario::EnbSpec overload_spec(lte::EnbId id = 1) {
  scenario::EnbSpec spec;
  spec.enb.enb_id = id;
  spec.enb.cells[0].cell_id = id;
  spec.agent.name = "ovl-" + std::to_string(id);
  return spec;
}

stack::UeProfile fixed_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

void flood_reports(scenario::Testbed::Enb& enb, int count) {
  const std::int64_t now_sf = enb.agent->api().current_subframe();
  for (int i = 0; i < count; ++i) {
    proto::StatsRequest request;
    request.request_id = 0xF1000000u + static_cast<std::uint32_t>(i);
    request.mode = proto::ReportMode::periodic;
    request.periodicity_ttis = 1;
    request.flags = proto::stats_flags::kAll;
    enb.agent->reports().register_request(request, now_sf);
  }
}

void clear_flood(scenario::Testbed::Enb& enb, int count) {
  for (int i = 0; i < count; ++i) {
    enb.agent->reports().cancel_request(0xF1000000u + static_cast<std::uint32_t>(i));
  }
}

TEST(OverloadEndToEnd, DisabledBudgetIsInert) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(overload_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(100);
  flood_reports(enb, 40);
  testbed.run_ttis(500);
  // Seed behavior: everything is admitted and applied, nothing shed or
  // throttled, no state machine movement.
  EXPECT_EQ(testbed.master().stats().ingest_shed(), 0u);
  EXPECT_EQ(testbed.master().stats().overload_transitions, 0u);
  EXPECT_EQ(testbed.master().overload_state(), OverloadState::normal);
  EXPECT_EQ(testbed.master().throttle_multiplier(), 1u);
  EXPECT_EQ(enb.agent->reports().throttle(), 1u);
}

TEST(OverloadEndToEnd, FloodShedsOnlyStatsAndStaysBounded) {
  ctrl::MasterConfig config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  config.overload.ingest.max_messages = 24;
  config.overload.ingest.max_bytes = 16384;
  scenario::Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(overload_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(200);

  flood_reports(enb, 60);
  testbed.run_ttis(1000);

  auto& master = testbed.master();
  const ctrl::ShardStats stats = master.stats();
  const auto shed = [&stats](TrafficClass cls) {
    return stats.ingest[static_cast<std::size_t>(cls)].shed;
  };
  // Statistics gave way...
  EXPECT_GT(stats.ingest_shed(), 0u);
  EXPECT_GT(shed(TrafficClass::stats), 0u);
  // ...but the protected classes never did, and nothing overflowed the
  // budget.
  EXPECT_EQ(shed(TrafficClass::session), 0u);
  EXPECT_EQ(shed(TrafficClass::command), 0u);
  EXPECT_EQ(shed(TrafficClass::config), 0u);
  EXPECT_EQ(stats.ingest_budget_overflows, 0u);
  // Queue memory bounded by the configured budget.
  EXPECT_LE(stats.ingest_peak_messages, 24u);
  EXPECT_LE(stats.ingest_peak_bytes, 16384u);
  // The watchdog reacted and the throttle engaged; the agent picked the
  // multiplier up from the envelope hint.
  EXPECT_GT(stats.overload_transitions, 0u);
  EXPECT_EQ(master.overload_state(), OverloadState::critical);
  EXPECT_GT(master.throttle_multiplier(), 1u);
  EXPECT_EQ(enb.agent->reports().throttle(), master.throttle_multiplier());
}

TEST(OverloadEndToEnd, RecoversAfterFloodClears) {
  ctrl::MasterConfig config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  config.overload.ingest.max_messages = 24;
  config.overload.ingest.max_bytes = 16384;
  scenario::Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(overload_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(200);

  flood_reports(enb, 60);
  testbed.run_ttis(800);
  ASSERT_GT(testbed.master().stats().overload_transitions, 0u);

  clear_flood(enb, 60);
  // kOverloadRecoveryCycles (100) per level plus window aging: well within
  // 2 s.
  testbed.run_ttis(2000);

  auto& master = testbed.master();
  EXPECT_EQ(master.overload_state(), OverloadState::normal);
  EXPECT_EQ(master.throttle_multiplier(), 1u);
  // The un-stamped envelope hint restores the agent to full rate.
  EXPECT_EQ(enb.agent->reports().throttle(), 1u);
  // RIB freshness is back: the last synced subframe tracks the TTI.
  const auto* node = master.rib().find_agent(enb.agent_id);
  ASSERT_NE(node, nullptr);
  EXPECT_GE(node->last_subframe, testbed.sim().current_tti() - 20);
}

TEST(OverloadEndToEnd, ReportFloodFaultInjectsAndCancels) {
  ctrl::MasterConfig config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  config.overload.ingest.max_messages = 24;
  scenario::Testbed testbed(std::move(config));
  auto& enb = testbed.add_enb(overload_spec());
  testbed.add_ue(0, fixed_ue(12));

  scenario::FaultInjector injector(testbed);
  scenario::FaultEvent flood;
  flood.at_s = 0.2;
  flood.kind = scenario::FaultKind::report_flood;
  flood.count = 50;
  flood.duration_s = 0.5;
  injector.schedule(flood);

  testbed.run_seconds(0.4);
  EXPECT_GE(enb.agent->reports().active_registrations(), 50u);
  testbed.run_seconds(0.6);
  // Flood cancelled after duration_s: only the master's own registrations
  // remain.
  EXPECT_LT(enb.agent->reports().active_registrations(), 50u);
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_GT(testbed.master().stats().ingest_shed(), 0u);
}

}  // namespace
}  // namespace flexran
