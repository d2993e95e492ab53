// Tests for the snapshot-based concurrent controller: versioned RIB
// snapshots (bit-stability, structural sharing), snapshot-backed analytics
// parity, deterministic batched command flushing, priority-tier execution
// on the worker pool, deferred app removal/pausing, and an end-to-end
// pipelined master run. See docs/controller_concurrency.md.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "apps/monitoring.h"
#include "apps/remote_scheduler.h"
#include "controller/shard_core.h"
#include "controller/rib_snapshot.h"
#include "controller/rib_view.h"
#include "controller/task_manager.h"
#include "scenario/testbed.h"

namespace flexran::ctrl {
namespace {

using scenario::Testbed;
using Ids = std::vector<AgentId>;

// ------------------------------------------------------------ RibSnapshot --

/// Three agents, each with one cell and two UEs.
void fill_rib(Rib& rib) {
  for (AgentId id = 1; id <= 3; ++id) {
    AgentNode& agent = rib.add_agent(id);
    agent.enb_id = id;
    auto& cell = agent.cell(id);
    cell.config.bandwidth_mhz = 10.0;  // 50 PRBs
    cell.stats.dl_prbs_in_use = 10 * static_cast<int>(id);
    cell.stats.active_ues = 2;
    for (lte::Rnti rnti = 70; rnti < 72; ++rnti) {
      auto& ue = agent.ues[agent.upsert_ue(rnti)];
      ue.cell = id;
      ue.stats.wb_cqi = 9;
      ue.stats.dl_bytes_delivered = 1000 * id;
      ue.cqi_avg.add(9.0);
    }
  }
}

TEST(RibSnapshot, BitStableWhileUpdaterMutates) {
  Rib rib;
  fill_rib(rib);
  auto v1 = rib.publish();
  ASSERT_EQ(v1->version(), 1u);
  ASSERT_EQ(v1->agent_count(), 3u);

  // The updater keeps writing the live table...
  auto& ue = rib.agent(1).ues[rib.agent(1).upsert_ue(70)];
  ue.stats.wb_cqi = 2;
  ue.stats.dl_bytes_delivered = 999999;
  rib.agent(2).erase_ue(70);
  rib.remove_agent(3);
  rib.agent(1).last_subframe = 4242;

  // ...and the held snapshot does not move.
  EXPECT_EQ(v1->find_ue(1, 70)->stats.wb_cqi, 9);
  EXPECT_EQ(v1->find_ue(1, 70)->stats.dl_bytes_delivered, 1000u);
  EXPECT_NE(v1->find_ue(2, 70), nullptr);
  EXPECT_NE(v1->find_agent(3), nullptr);
  EXPECT_EQ(v1->find_agent(1)->last_subframe, 0);
  EXPECT_EQ(v1->ue_count(), 6u);

  // The next publish sees the mutations; the old version still does not.
  auto v2 = rib.publish();
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->find_ue(1, 70)->stats.wb_cqi, 2);
  EXPECT_EQ(v2->find_agent(3), nullptr);
  EXPECT_EQ(v1->find_ue(1, 70)->stats.wb_cqi, 9);
  EXPECT_EQ(v1->agent_count(), 3u);
}

TEST(RibSnapshot, SharesUnchangedSubtreesAndSkipsNoopPublishes) {
  Rib rib;
  fill_rib(rib);
  auto v1 = rib.publish();

  // Nothing written (reads are not writes): the same snapshot is
  // re-published, version unchanged.
  EXPECT_EQ(rib.find_agent(1), v1->find_agent(1));
  auto same = rib.publish();
  EXPECT_EQ(same.get(), v1.get());
  EXPECT_EQ(rib.current()->version(), 1u);

  // Only agent 1 written: agents 2 and 3 are carried by the same nodes
  // (structural sharing), agent 1 was cloned by the write barrier.
  rib.agent(1).last_subframe = 100;
  auto v2 = rib.publish();
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_NE(v2->find_agent(1), v1->find_agent(1));
  EXPECT_EQ(v2->find_agent(2), v1->find_agent(2));
  EXPECT_EQ(v2->find_agent(3), v1->find_agent(3));
  EXPECT_EQ(v2->find_agent(1)->last_subframe, 100);
}

// ------------------------------------------------------ slot table ---------

/// Adds an empty agent node for every id (the slot table only cares about
/// ids and node identity).
void add_agents(Rib& rib, const std::vector<AgentId>& ids) {
  for (AgentId id : ids) rib.add_agent(id);
}

std::vector<AgentId> ids_of(const RibSnapshot& snapshot) {
  std::vector<AgentId> ids;
  for (const auto& [id, node] : snapshot.agents()) {
    EXPECT_EQ(node->id, id);
    ids.push_back(id);
  }
  return ids;
}

TEST(RibSnapshot, OneDirtyAgentAmongThousandSharesTheOthers) {
  Rib rib;
  std::vector<AgentId> all;
  for (AgentId id = 1; id <= 1000; ++id) all.push_back(id);
  add_agents(rib, all);
  auto v1 = rib.publish();
  ASSERT_EQ(v1->agent_count(), 1000u);

  rib.agent(500).last_subframe = 7;
  auto v2 = rib.publish();
  EXPECT_EQ(v2->membership_version(), v1->membership_version()) << "stats-only publish";
  EXPECT_NE(v2->find_agent(500), v1->find_agent(500));
  EXPECT_EQ(v2->find_agent(500)->last_subframe, 7);
  EXPECT_EQ(v1->find_agent(500)->last_subframe, 0);
  for (AgentId id : all) {
    if (id != 500) {
      EXPECT_EQ(v2->find_agent(id), v1->find_agent(id)) << "agent " << id;
    }
  }

  // Iteration is strictly ascending and visits every agent exactly once.
  EXPECT_EQ(ids_of(*v2), all);
  EXPECT_EQ(v2->agents().size(), 1000u);
}

TEST(RibSnapshot, AddRemoveAndReaddAcrossChunkBoundaries) {
  constexpr AgentId kChunk = RibSnapshot::kChunkSlots;
  const std::vector<AgentId> edges = {1, kChunk - 1, kChunk, 2 * kChunk - 1, 2 * kChunk};
  constexpr AgentId kSparse = 100 * kChunk + 5;  // far past the table end
  Rib rib;
  add_agents(rib, edges);
  auto v1 = rib.publish();
  EXPECT_EQ(ids_of(*v1), edges);

  // Add: a sparse id grows the table without disturbing the others.
  add_agents(rib, {kSparse});
  auto v2 = rib.publish();
  EXPECT_NE(v2->membership_version(), v1->membership_version());
  EXPECT_EQ(v2->agent_count(), edges.size() + 1);
  EXPECT_NE(v2->find_agent(kSparse), nullptr);
  for (AgentId id : edges) EXPECT_EQ(v2->find_agent(id), v1->find_agent(id));
  EXPECT_EQ(v1->find_agent(kSparse), nullptr) << "old version keeps its agent set";

  // Remove on both sides of each boundary, in two publishes; the second
  // empties the sparse id's chunk.
  rib.remove_agent(kChunk - 1);
  rib.remove_agent(kChunk);
  auto v3 = rib.publish();
  rib.remove_agent(2 * kChunk);
  rib.remove_agent(kSparse);
  auto v4 = rib.publish();
  EXPECT_EQ(ids_of(*v3), (std::vector<AgentId>{1, 2 * kChunk - 1, 2 * kChunk, kSparse}));
  EXPECT_EQ(ids_of(*v4), (std::vector<AgentId>{1, 2 * kChunk - 1}));
  EXPECT_EQ(v4->agent_count(), 2u);
  EXPECT_EQ(v4->find_agent(kChunk), nullptr);
  EXPECT_EQ(v4->find_agent(kSparse), nullptr);
  EXPECT_EQ(v4->find_agent(1), v1->find_agent(1));

  // Re-add: fresh nodes in the emptied slots.
  add_agents(rib, {kChunk, kSparse});
  auto v5 = rib.publish();
  EXPECT_EQ(ids_of(*v5), (std::vector<AgentId>{1, kChunk, 2 * kChunk - 1, kSparse}));
  EXPECT_NE(v5->find_agent(kChunk), nullptr);
  EXPECT_NE(v5->find_agent(kChunk), v1->find_agent(kChunk));
  EXPECT_EQ(v5->agent_count(), 4u);
  // Every held version still shows exactly what it published.
  EXPECT_EQ(ids_of(*v1), edges);
  EXPECT_EQ(v4->agent_count(), 2u);
}

TEST(RibSnapshot, FindAgentRejectsZeroAbsentAndOutOfRangeIds) {
  Rib rib;
  add_agents(rib, {1, 2, 40});
  EXPECT_EQ(rib.current()->find_agent(1), nullptr) << "empty version 0";
  auto snapshot = rib.publish();
  EXPECT_EQ(snapshot->find_agent(0), nullptr);
  EXPECT_EQ(snapshot->find_agent(3), nullptr);        // absent, inside the table
  EXPECT_EQ(snapshot->find_agent(100000), nullptr);   // beyond the table
  EXPECT_EQ(snapshot->find_agent(0xFFFFFFFFu), nullptr);
  EXPECT_EQ(snapshot->find_ue(100000, 70), nullptr);
  EXPECT_NE(snapshot->find_agent(40), nullptr);
}

/// Gives every UE of `agent` the stats `salt` names, in the UE rows and
/// the hot columns.
void stamp(AgentNode& agent, std::uint32_t salt) {
  agent.last_subframe = salt;
  for (std::size_t row = 0; row < agent.ues.size(); ++row) {
    auto& stats = agent.ues[row].stats;
    stats.wb_cqi = static_cast<std::uint8_t>(salt % 16);
    stats.dl_bytes_delivered = 1000 * salt + row;
    agent.hot.write(row, stats);
  }
}

/// True when `agent` still reads exactly what stamp(`salt`) wrote.
bool reads_stamp(const AgentNode& agent, std::uint32_t salt) {
  bool same = agent.last_subframe == salt;
  for (std::size_t row = 0; row < agent.ues.size(); ++row) {
    same = same && agent.ues[row].stats.wb_cqi == salt % 16 &&
           agent.ues[row].stats.dl_bytes_delivered == 1000 * salt + row &&
           agent.hot.wb_cqi[row] == salt % 16 &&
           agent.hot.dl_bytes_delivered[row] == 1000 * salt + row;
  }
  return same;
}

TEST(RibSnapshot, RecycledCopyNeverTouchesAHeldSnapshot) {
  Rib rib;
  fill_rib(rib);
  rib.publish();
  stamp(rib.agent(1), 1);
  const auto held = rib.publish();
  const AgentNode* held_node = held->find_agent(1);

  // Five more versions of agent 1, each released before the next publish:
  // from the second on, the clone lands in a node an older version retired.
  std::set<const AgentNode*> nodes;
  for (std::uint32_t salt = 2; salt <= 6; ++salt) {
    stamp(rib.agent(1), salt);
    const auto next = rib.publish();
    ASSERT_TRUE(reads_stamp(*next->find_agent(1), salt));
    EXPECT_NE(next->find_agent(1), held_node);
    nodes.insert(next->find_agent(1));
  }
  EXPECT_LT(nodes.size(), 5u) << "retired nodes are reused";
  EXPECT_EQ(held->find_agent(1), held_node);
  EXPECT_TRUE(reads_stamp(*held_node, 1));
  EXPECT_EQ(held->find_agent(1)->ues.size(), 2u);
}

TEST(RibSnapshot, PoolStaysBounded) {
  auto rib = std::make_unique<Rib>();
  for (AgentId id = 1; id <= 64; ++id) {
    AgentNode& agent = rib->add_agent(id);
    for (lte::Rnti rnti = 70; rnti < 74; ++rnti) agent.upsert_ue(rnti);
  }
  Ids all;
  for (AgentId id = 1; id <= 64; ++id) all.push_back(id);
  // Writes every agent of `ids` through the barrier, then publishes.
  const auto publish_writing = [&](const Ids& ids) {
    for (AgentId id : ids) rib->agent(id);
    rib->publish();
  };
  rib->publish();
  EXPECT_EQ(rib->spare_nodes(), 0u) << "the first publish retired nothing";

  // Steady state: D written agents per publish, no snapshot held but the
  // RIB's own current one -- the RIB keeps at most D spare nodes.
  constexpr std::size_t kDirty = 10;
  const Ids dirty(all.begin(), all.begin() + kDirty);
  for (std::uint32_t salt = 1; salt <= 20; ++salt) {
    for (AgentId id : dirty) stamp(rib->agent(id), salt);
    rib->publish();
    EXPECT_LE(rib->spare_nodes(), kDirty);
  }
  EXPECT_EQ(rib->spare_nodes(), kDirty);

  // A burst that replaces every agent grows the pool to the burst. Smaller
  // publishes keep it there while the burst is recent, so a write count
  // that swings back up clones into retired nodes; two windows of them
  // shrink it back.
  publish_writing(all);
  publish_writing(all);
  EXPECT_EQ(rib->spare_nodes(), all.size());
  const Ids few(all.begin(), all.begin() + 3);
  publish_writing(few);
  publish_writing(few);
  EXPECT_EQ(rib->spare_nodes(), all.size());
  for (std::uint32_t i = 0; i < 2 * util::RecentPeak::kWindowRounds; ++i) publish_writing(few);
  EXPECT_LE(rib->spare_nodes(), few.size());

  // Nodes outlive their RIB: the held snapshot reads correctly, and its
  // nodes, the pool and its spares are freed when it goes.
  for (AgentId id : all) stamp(rib->agent(id), 99);
  auto held = rib->publish();
  rib.reset();
  ASSERT_EQ(held->agent_count(), all.size());
  for (const auto& [id, node] : held->agents()) {
    EXPECT_EQ(node->id, id);
    EXPECT_TRUE(reads_stamp(*node, 99)) << "agent " << id;
  }
  held.reset();
}

TEST(RibSnapshot, CurrentIsConsistentUnderConcurrentPublish) {
  Rib rib;
  fill_rib(rib);
  rib.publish();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> last_seen{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto snapshot = rib.current();
      // Monotonic versions and internally consistent trees.
      ASSERT_GE(snapshot->version(), last_seen.load());
      last_seen.store(snapshot->version());
      ASSERT_EQ(snapshot->agent_count(), 3u);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    rib.agent(1).last_subframe = i;
    rib.publish();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(rib.current()->version(), 2001u);
}

// ------------------------------------------------- snapshot-backed views ---

TEST(RibViewSnapshot, SummariesOverSnapshotMatchLiveRib) {
  Rib rib;
  fill_rib(rib);
  const auto view = RibSnapshot::capture(rib);

  // The flattened view lists the live RIB's UEs in (agent, rnti) order.
  const auto summaries = summarize_ues(*view);
  std::size_t row = 0;
  for (const auto& [id, agent] : rib.agents()) {
    for (const auto& ue : agent->ues) {
      ASSERT_LT(row, summaries.size());
      EXPECT_EQ(summaries[row].agent, id);
      EXPECT_EQ(summaries[row].rnti, ue.rnti);
      EXPECT_EQ(summaries[row].dl_bytes_delivered, ue.stats.dl_bytes_delivered);
      ++row;
    }
  }
  EXPECT_EQ(summaries.size(), row);
}

// ------------------------------------------------------ batched commands ---

/// Records every command that reaches the wire, in order.
class RecordingNorthbound : public NorthboundApi {
 public:
  explicit RecordingNorthbound(const Rib& rib) : rib_(&rib) {}

  std::vector<std::string> log;

  std::shared_ptr<const RibSnapshot> rib_snapshot() const override { return rib_->current(); }
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
  util::Status send_policy(AgentId, const std::string& yaml) override {
    log.push_back(yaml);
    return {};
  }

 private:
  const Rib* rib_;
};

TEST(Monitoring, AddedAndRemovedAgentsMatchAFreshApp) {
  Rib rib;
  fill_rib(rib);
  rib.add_agent(6);
  for (AgentId id = 1; id <= 3; ++id) stamp(rib.agent(id), 10 + id);
  RecordingNorthbound api(rib);
  apps::MonitoringApp app(/*period_cycles=*/1);
  rib.publish();
  app.on_cycle(0, api);
  ASSERT_EQ(app.summaries().size(), 4u);

  // Drop the first and a middle agent, add one between and one past the
  // end, and change an agent that stays.
  rib.remove_agent(1);
  rib.remove_agent(3);
  stamp(rib.add_agent(4), 40);
  rib.add_agent(9);
  stamp(rib.agent(2), 20);
  rib.publish();
  app.on_cycle(1, api);
  apps::MonitoringApp fresh(/*period_cycles=*/1);
  fresh.on_cycle(0, api);
  EXPECT_EQ(app.summaries(), fresh.summaries());
  ASSERT_EQ(app.summaries().size(), 4u);
  EXPECT_EQ(app.summaries().at(2).total_dl_bytes, 2 * 20000u + 1);

  // Every agent gone.
  for (AgentId id : {2u, 4u, 6u, 9u}) rib.remove_agent(id);
  rib.publish();
  app.on_cycle(2, api);
  EXPECT_TRUE(app.summaries().empty());
  EXPECT_EQ(app.snapshots_taken(), 3);
}

/// Issues tagged commands each cycle, optionally after a delay (to scramble
/// worker completion order).
class ChattyApp : public App {
 public:
  ChattyApp(std::string name, int priority, std::chrono::microseconds delay)
      : name_(std::move(name)), priority_(priority), delay_(delay) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t cycle, NorthboundApi& api) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    (void)api.send_policy(1, name_ + "#" + std::to_string(cycle) + "/a");
    (void)api.send_policy(1, name_ + "#" + std::to_string(cycle) + "/b");
  }

 private:
  std::string name_;
  int priority_;
  std::chrono::microseconds delay_;
};

std::vector<std::string> run_chatty_cycles(int workers, int cycles) {
  Rib rib;
  fill_rib(rib);
  RecordingNorthbound api(rib);

  TaskManagerConfig config;
  config.real_time = false;
  config.workers = workers;
  TaskManager tm(config, nullptr, [&] { rib.publish(); }, nullptr);
  tm.set_snapshot_source([&] { return rib.current(); }, [] { return sim::TimeUs{0}; });

  // "slow" registers first within the time-critical tier but finishes last;
  // the flush order must not care.
  ChattyApp slow("slow", 1, std::chrono::microseconds(1500));
  ChattyApp fast("fast", 1, std::chrono::microseconds(0));
  ChattyApp late("late", 200, std::chrono::microseconds(0));
  tm.add_app(&slow, api);
  tm.add_app(&fast, api);
  tm.add_app(&late, api);
  for (int cycle = 0; cycle < cycles; ++cycle) tm.run_cycle(cycle);
  tm.quiesce();
  return api.log;
}

TEST(CommandBatch, FlushOrderIsDeterministicAcrossRunsAndWorkerCounts) {
  constexpr int kCycles = 6;
  const auto inline_log = run_chatty_cycles(/*workers=*/0, kCycles);
  ASSERT_EQ(inline_log.size(), 3u * 2u * kCycles);
  // Within a cycle: priority order, then registration order, then enqueue
  // order -- independent of which worker finished first.
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const auto base = static_cast<std::size_t>(cycle) * 6;
    const std::string tag = "#" + std::to_string(cycle);
    EXPECT_EQ(inline_log[base + 0], "slow" + tag + "/a");
    EXPECT_EQ(inline_log[base + 1], "slow" + tag + "/b");
    EXPECT_EQ(inline_log[base + 2], "fast" + tag + "/a");
    EXPECT_EQ(inline_log[base + 3], "fast" + tag + "/b");
    EXPECT_EQ(inline_log[base + 4], "late" + tag + "/a");
    EXPECT_EQ(inline_log[base + 5], "late" + tag + "/b");
  }
  // Parallel execution (2 and 4 workers) must produce the identical wire
  // sequence, run after run.
  EXPECT_EQ(run_chatty_cycles(/*workers=*/2, kCycles), inline_log);
  EXPECT_EQ(run_chatty_cycles(/*workers=*/4, kCycles), inline_log);
  EXPECT_EQ(run_chatty_cycles(/*workers=*/4, kCycles), inline_log);
}

TEST(CommandBatch, EnqueueValidatesAgainstPinnedSnapshot) {
  Rib rib;
  fill_rib(rib);
  rib.publish();
  RecordingNorthbound api(rib);
  BatchingNorthbound proxy(api);

  proxy.pin(rib.current(), 0);
  EXPECT_TRUE(proxy.send_policy(1, "known").ok());
  auto unknown = proxy.send_policy(99, "unknown");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(proxy.queued(), 1u);
  EXPECT_TRUE(api.log.empty());  // nothing on the wire until flush
  EXPECT_EQ(proxy.flush(), 1u);
  ASSERT_EQ(api.log.size(), 1u);
  EXPECT_EQ(api.log[0], "known");

  // Unpinned: commands pass straight through.
  EXPECT_TRUE(proxy.send_policy(1, "direct").ok());
  EXPECT_EQ(api.log.size(), 2u);
}

// ------------------------------------------------------------ worker pool ---

class TierProbeApp : public App {
 public:
  TierProbeApp(std::string name, int priority, std::atomic<int>& finished_above,
               std::atomic<bool>& violated, bool is_high_tier)
      : name_(std::move(name)),
        priority_(priority),
        finished_above_(&finished_above),
        violated_(&violated),
        is_high_tier_(is_high_tier) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override {
    if (is_high_tier_) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      finished_above_->fetch_add(1);
    } else if (finished_above_->load() != 2) {
      // A low-priority app started before the whole tier above completed.
      violated_->store(true);
    }
  }

 private:
  std::string name_;
  int priority_;
  std::atomic<int>* finished_above_;
  std::atomic<bool>* violated_;
  bool is_high_tier_;
};

TEST(TaskManagerPool, LowerTierWaitsForHigherTier) {
  Rib rib;
  fill_rib(rib);
  RecordingNorthbound api(rib);
  TaskManagerConfig config;
  config.real_time = false;
  config.workers = 4;
  TaskManager tm(config, nullptr, [&] { rib.publish(); }, nullptr);
  tm.set_snapshot_source([&] { return rib.current(); }, [] { return sim::TimeUs{0}; });

  std::atomic<int> finished_above{0};
  std::atomic<bool> violated{false};
  TierProbeApp a("a", 1, finished_above, violated, true);
  TierProbeApp b("b", 1, finished_above, violated, true);
  TierProbeApp c("c", 200, finished_above, violated, false);
  TierProbeApp d("d", 200, finished_above, violated, false);
  tm.add_app(&a, api);
  tm.add_app(&b, api);
  tm.add_app(&c, api);
  tm.add_app(&d, api);

  for (int cycle = 0; cycle < 20; ++cycle) {
    finished_above.store(0);
    tm.run_cycle(cycle);
    tm.quiesce();  // one slot at a time so the per-cycle reset is race-free
  }
  EXPECT_FALSE(violated.load());
  // Per-app wall stats were recorded for every cycle.
  const auto stats = tm.app_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& stat : stats) EXPECT_EQ(stat.runs, 20u);
}

/// Removes a sibling app (and itself) mid-cycle; the seed mutated the app
/// vector during iteration (undefined behavior).
class SelfRemovingApp : public App {
 public:
  SelfRemovingApp(std::string name, TaskManager& tm, std::string victim)
      : name_(std::move(name)), tm_(&tm), victim_(std::move(victim)) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return 1; }
  void on_cycle(std::int64_t, NorthboundApi&) override {
    ++runs_;
    tm_->remove_app(victim_);
    tm_->remove_app(name_);
  }
  int runs() const { return runs_; }

 private:
  std::string name_;
  TaskManager* tm_;
  std::string victim_;
  int runs_ = 0;
};

class CountingApp : public App {
 public:
  CountingApp(std::string name, int priority) : name_(std::move(name)), priority_(priority) {}
  std::string_view name() const override { return name_; }
  int priority() const override { return priority_; }
  void on_cycle(std::int64_t, NorthboundApi&) override { ++runs_; }
  int runs() const { return runs_; }

 private:
  std::string name_;
  int priority_;
  int runs_ = 0;
};

TEST(TaskManagerPool, RemoveDuringCycleIsDeferredToCycleBoundary) {
  Rib rib;
  RecordingNorthbound api(rib);
  TaskManager tm({.real_time = false}, nullptr, nullptr, nullptr);

  SelfRemovingApp remover("remover", tm, "victim");
  CountingApp victim("victim", 300);  // scheduled after the remover
  tm.add_app(&remover, api);
  tm.add_app(&victim, api);
  ASSERT_EQ(tm.app_count(), 2u);

  // Cycle 0: the remover asks for both removals mid-cycle. The victim,
  // later in this cycle's schedule, must still run exactly once (the
  // working set is frozen at slot start), and both removals must land at
  // the cycle boundary instead of invalidating the iteration.
  tm.run_cycle(0);
  EXPECT_EQ(remover.runs(), 1);
  EXPECT_EQ(victim.runs(), 1);
  EXPECT_EQ(tm.app_count(), 0u);
  tm.run_cycle(1);
  EXPECT_EQ(remover.runs(), 1);
  EXPECT_EQ(victim.runs(), 1);
}

TEST(TaskManagerPool, RemoveWhileSlotInFlightWaitsForJoin) {
  Rib rib;
  fill_rib(rib);
  RecordingNorthbound api(rib);
  TaskManagerConfig config;
  config.real_time = false;
  config.workers = 2;
  TaskManager tm(config, nullptr, [&] { rib.publish(); }, nullptr);
  tm.set_snapshot_source([&] { return rib.current(); }, [] { return sim::TimeUs{0}; });

  ChattyApp slow("slow", 1, std::chrono::microseconds(2000));
  tm.add_app(&slow, api);
  tm.run_cycle(0);  // dispatches the slot; workers are now running
  tm.remove_app("slow");  // in flight -> deferred, not torn out from under the worker
  EXPECT_EQ(tm.app_count(), 1u);
  tm.quiesce();  // joins, flushes, applies the deferral
  EXPECT_EQ(tm.app_count(), 0u);
  // Its final batch still made the wire.
  EXPECT_EQ(api.log.size(), 2u);
}

/// Keeps the previous cycle's snapshot until the next cycle, checks that
/// it still reads what it read then, and drops it there: on a worker, so
/// the last reference to the nodes it alone holds goes on that thread.
class PreviousSnapshotApp : public App {
 public:
  std::string_view name() const override { return "previous-snapshot"; }
  void on_cycle(std::int64_t, NorthboundApi& api) override {
    if (previous_ != nullptr) {
      for (const auto& [id, node] : previous_->agents()) {
        (void)id;
        if (!reads_stamp(*node, previous_salt_)) ++mismatches;
      }
      ++checked;
    }
    previous_ = api.rib_snapshot();
    previous_salt_ = static_cast<std::uint32_t>(previous_->find_agent(1)->last_subframe);
  }

  int checked = 0;
  int mismatches = 0;

 private:
  std::shared_ptr<const RibSnapshot> previous_;
  std::uint32_t previous_salt_ = 0;
};

TEST(TaskManagerPool, WorkerReleasesOfHeldSnapshotsRecycleSafely) {
  Rib rib;
  fill_rib(rib);
  RecordingNorthbound api(rib);
  TaskManagerConfig config;
  config.real_time = false;
  config.workers = 2;
  std::uint32_t salt = 0;
  TaskManager tm(
      config,
      // Every agent changes every cycle, so the updater of cycle N+1 clones
      // every node while the apps of cycle N read snapshot N, and the
      // clones go into recycled nodes.
      [&](std::int64_t) {
        ++salt;
        for (AgentId id = 1; id <= 3; ++id) stamp(rib.agent(id), salt);
      },
      [&] { rib.publish(); }, nullptr);
  tm.set_snapshot_source([&] { return rib.current(); }, [] { return sim::TimeUs{0}; });

  PreviousSnapshotApp app;
  tm.add_app(&app, api);
  constexpr int kCycles = 200;
  for (int cycle = 0; cycle < kCycles; ++cycle) tm.run_cycle(cycle);
  tm.quiesce();
  EXPECT_EQ(app.checked, kCycles - 1);
  EXPECT_EQ(app.mismatches, 0);
  EXPECT_LE(rib.spare_nodes(), 3u);
}

TEST(TaskManagerPool, PauseWhileRunningTakesEffectNextCycle) {
  Rib rib;
  RecordingNorthbound api(rib);
  TaskManager tm({.real_time = false}, nullptr, nullptr, nullptr);
  CountingApp app("app", 10);
  tm.add_app(&app, api);
  tm.run_cycle(0);
  ASSERT_TRUE(tm.set_paused("app", true).ok());
  tm.run_cycle(1);
  EXPECT_EQ(app.runs(), 1);
  ASSERT_TRUE(tm.set_paused("app", false).ok());
  tm.run_cycle(2);
  EXPECT_EQ(app.runs(), 2);
}

// -------------------------------------------------------- end-to-end E2E ---

scenario::EnbSpec sched_spec(lte::EnbId id = 1) {
  scenario::EnbSpec s;
  s.enb.enb_id = id;
  s.enb.cells[0].cell_id = id;
  s.agent.name = "enb-" + std::to_string(id);
  s.agent.dl_scheduler = "remote";
  return s;
}

TEST(PipelinedMaster, EndToEndParallelCyclesServeTraffic) {
  auto config = scenario::per_tti_master_config();
  config.task_manager.workers = 2;
  Testbed testbed(config);
  testbed.add_enb(sched_spec());

  apps::RemoteSchedulerConfig sched_config;
  // Pipelined dispatch flushes a cycle's decisions one cycle later; keep a
  // comfortable schedule-ahead margin so they still arrive in time.
  sched_config.schedule_ahead_sf = 4;
  auto* scheduler = static_cast<apps::RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>(sched_config)));
  auto* monitoring = static_cast<apps::MonitoringApp*>(
      testbed.master().add_app(std::make_unique<apps::MonitoringApp>(10)));

  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(12);
  profile.attach_after_ttis = 10;
  const auto rnti = testbed.add_ue(0, std::move(profile));
  // Keep the DL queue non-empty so the scheduler has per-TTI work.
  auto* dp = testbed.enb(0).data_plane.get();
  testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
      (void)testbed.epc().downlink(rnti, 60'000);
    }
  });

  testbed.run_ttis(500);
  testbed.master().quiesce();

  EXPECT_GT(scheduler->decisions_sent(), 100u);
  EXPECT_GT(testbed.master().stats().commands_flushed, 100u);
  EXPECT_GT(testbed.master().snapshot_version(), 100u);
  EXPECT_GT(testbed.master().snapshot_publish_us().count(), 400u);
  EXPECT_GE(monitoring->snapshots_taken(), 1);
  EXPECT_GT(testbed.metrics().total_bytes_enb(dp->config().enb_id, lte::Direction::downlink),
            100000u);
  ASSERT_NE(dp->ue(rnti), nullptr);
  EXPECT_TRUE(dp->ue(rnti)->connected());
  // Single-writer discipline held: per-app stats exist for both apps.
  const auto stats = testbed.master().task_manager().app_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "remote_scheduler");
}

}  // namespace
}  // namespace flexran::ctrl
