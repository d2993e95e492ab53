// Wire fast-path benchmark and allocation gate (docs/wire_fastpath.md).
//
// Measures ns/op and heap allocations per message for the control-channel
// hot path: nested-message encode (reused encoder, length-prefix
// backpatching), envelope + body decode into reused structs (of the
// regular reply below and of one shaped like the perfbench replay agents'),
// frame + reassemble, the full encode->frame->reassemble->decode loop,
// ingest->apply through a standalone ShardCore over sim transports, and
// RIB snapshot publish (one agent written through the RIB's write barrier,
// then the freeze) and 4-shard compose at 16, 1024 and 8192 agents, whose
// allocation counts must not grow with the fleet. Publish
// and ingest->apply are also run for 16- and 64-UE agents without RSRP
// lists, whose allocation counts must not grow with the UEs an agent serves.
// On the command path: a 16-DCI DlMacConfig encoded into a reused encoder
// and decoded into a reused message, and one agent subframe (remote DL
// scheduling of 16 UEs, per-TTI stats and subframe ticks) over a counting
// transport that copies nothing, with a periodic and with a triggered
// stats registration. Last, one idle ShardCore cycle at 16, 1024 and 8192
// agents, whose time must not grow with the fleet.
//
// Allocations are counted by a global operator-new hook (alloc_count.cpp,
// linked into this binary only), so the numbers are exact, deterministic,
// and independent of machine speed -- which is why tools/check.sh gates on
// them (not on ns/op):
//
//   bench_wire --check=bench/wire_alloc_baseline.txt   # exit 1 on regression
//   bench_wire [BENCH_wire.json]                       # report + JSON
//
// Both modes exit 1 when the decoded reply or DCI list differs, field by
// field, from what was encoded: a fast but wrong decoder cannot pass.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "bench/alloc_count.h"
#include "bench/bench_common.h"
#include "controller/shard_core.h"
#include "net/framing.h"
#include "net/sim_transport.h"
#include "proto/messages.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

using namespace flexran;
using Clock = std::chrono::steady_clock;

double ns_per_op(std::uint64_t ops, Clock::time_point start, Clock::time_point end) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

// ------------------------------------------------------------- workload --

constexpr std::size_t kUes = 16;
constexpr std::size_t kRsrpPerUe = 2;
constexpr std::uint32_t kXid = 77;
constexpr std::uint64_t kEncodeIters = 20'000;
constexpr std::uint64_t kLoopIters = 20'000;
/// Every timed stage reports the best of this many equal rounds of its
/// iterations, so a slow stretch of a shared host during a stage does not
/// count. Runs still differ with the host's load between them
/// (docs/wire_fastpath.md).
constexpr int kRounds = 5;
constexpr std::uint64_t kWarmup = 200;
constexpr std::uint64_t kIngestIters = 2'000;
constexpr std::size_t kFleetSizes[] = {16, 1024, 8192};
constexpr std::size_t kFleets = std::size(kFleetSizes);
constexpr std::size_t kComposeShards = 4;
constexpr std::uint64_t kPublishIters = 2'000;
/// UEs per agent of the no-RSRP runs, where every UE row is fixed-size.
constexpr std::size_t kUeCounts[] = {16, 64};
constexpr std::size_t kUeShapes = std::size(kUeCounts);

proto::StatsReply make_reply(std::size_t ues = kUes, std::size_t rsrp_per_ue = kRsrpPerUe) {
  proto::StatsReply reply;
  reply.request_id = 1;
  reply.subframe = 123456;
  for (std::size_t i = 0; i < ues; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    ue.bsr_bytes = {0, 1500, 0, static_cast<std::uint32_t>(200 * i)};
    ue.phr_db = 17;
    ue.wb_cqi = static_cast<std::uint8_t>(3 + i % 12);
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(4096 + 17 * i);
    ue.dl_bytes_delivered = 100'000 + 3 * i;
    ue.ul_bytes_received = 40'000 + i;
    ue.ul_buffer_bytes = static_cast<std::uint32_t>(300 * i);
    for (std::size_t m = 0; m < rsrp_per_ue; ++m) {
      ue.rsrp.push_back({static_cast<lte::CellId>(1 + m), -90.0 - static_cast<double>(i)});
    }
    reply.ue_reports.push_back(std::move(ue));
  }
  proto::CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = 42;
  cell.ul_prbs_in_use = 11;
  cell.active_ues = static_cast<std::uint32_t>(ues);
  reply.cell_reports.push_back(cell);
  return reply;
}

/// A 16-UE reply with the value ranges of the perfbench replay agents
/// (perfbench/harness/workloads.cpp), no RSRP: most counters take 2-5
/// varint bytes, where make_reply's mostly take 1-3.
proto::StatsReply make_replay_reply() {
  util::Rng rng(24);
  proto::StatsReply reply;
  reply.request_id = 1;
  for (std::size_t i = 0; i < kUes; ++i) {
    proto::UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + i);
    for (auto& bsr : ue.bsr_bytes) bsr = static_cast<std::uint32_t>(rng.uniform_int(0, 40'000));
    ue.phr_db = static_cast<std::int32_t>(rng.uniform_int(0, 40));
    ue.wb_cqi = static_cast<std::uint8_t>(rng.uniform_int(1, 15));
    ue.wb_cqi_protected = ue.wb_cqi;
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 200'000));
    ue.pending_harq = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
    ue.dl_bytes_delivered = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    ue.ul_bytes_received = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 28));
    ue.ul_buffer_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 20'000));
    reply.ue_reports.push_back(ue);
  }
  proto::CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
  cell.ul_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
  cell.active_ues = static_cast<std::uint32_t>(kUes);
  reply.cell_reports.push_back(cell);
  return reply;
}

// RIB agent as the updater leaves it after applying `reply`: one cell and
// one UE row (with its hot-column row) per report.
void fill_agent(ctrl::AgentNode& agent, ctrl::AgentId id, const proto::StatsReply& reply) {
  agent.id = id;
  auto& cell = agent.cell(1);
  cell.stats = reply.cell_reports.front();
  for (const auto& report : reply.ue_reports) {
    const std::size_t row = agent.upsert_ue(report.rnti);
    auto& ue = agent.ues[row];
    ue.cell = cell.id;
    ue.stats = report;
    ue.cqi_avg.add(report.wb_cqi);
    agent.hot.write(row, report);
  }
}

/// The agent written before publish `i`: spread over the fleet so
/// successive writes clone different chunks.
ctrl::AgentId written_agent(std::uint64_t i, std::size_t agents) {
  return 1 + static_cast<ctrl::AgentId>(i * 7919 % agents);
}

/// ns per call of `op`, the best of kRounds rounds of `iters` / kRounds
/// calls after kWarmup warm-up calls, and allocations per call over all
/// rounds.
template <typename Op>
std::pair<double, double> measure_rounds(std::uint64_t iters, Op&& op) {
  const std::uint64_t round_iters = iters / kRounds;
  for (std::uint64_t i = 0; i < kWarmup; ++i) op();
  double best_ns = 0.0;
  const auto allocs0 = bench::allocations();
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < round_iters; ++i) op();
    const double ns = ns_per_op(round_iters, t0, Clock::now());
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  return {best_ns, static_cast<double>(bench::allocations() - allocs0) /
                       static_cast<double>(kRounds * round_iters)};
}

/// ns and allocations per message from a stats reply arriving at a
/// standalone ShardCore to its snapshot being published.
std::pair<double, double> measure_ingest(const std::vector<std::uint8_t>& wire) {
  sim::Simulator sim;
  ctrl::MasterConfig config;
  config.auto_configure = false;
  config.echo_period_cycles = 0;
  ctrl::ShardCore core(sim, config);
  auto pair = net::make_sim_transport_pair(sim);
  core.add_agent(*pair.a);

  proto::Hello hello;
  hello.enb_id = 1;
  hello.name = "bench";
  (void)pair.b->send(net::TrafficClass::session, proto::pack(hello, 1));
  sim.run();
  core.run_cycle();

  return measure_rounds(kIngestIters, [&] {
    (void)pair.b->send(net::TrafficClass::stats, wire);
    sim.run();
    core.run_cycle();
  });
}

/// ns and allocations per write of one agent through the write barrier and
/// publish, in a one-shard RIB of `agents` agents that each applied `reply`.
std::pair<double, double> measure_publish(std::size_t agents, const proto::StatsReply& reply) {
  ctrl::Rib rib;
  for (ctrl::AgentId id = 1; id <= agents; ++id) fill_agent(rib.add_agent(id), id, reply);
  rib.publish();
  const auto publish = [&](std::uint64_t i) {
    rib.agent(written_agent(i, agents)).last_subframe = static_cast<std::int64_t>(i);
    rib.publish();
  };
  for (std::uint64_t i = 0; i < kWarmup; ++i) publish(i);
  const auto allocs0 = bench::allocations();
  auto t0 = Clock::now();
  for (std::uint64_t i = kWarmup; i < kWarmup + kPublishIters; ++i) publish(i);
  auto t1 = Clock::now();
  return {ns_per_op(kPublishIters, t0, t1),
          static_cast<double>(bench::allocations() - allocs0) / static_cast<double>(kPublishIters)};
}

// ------------------------------------------------------ command path --

constexpr std::size_t kDcis = 16;
constexpr int kPrbsPerDci = 6;
constexpr std::uint64_t kCommandIters = 20'000;
constexpr std::int64_t kAgentWarmupTtis = 300;
constexpr std::int64_t kAgentTtis = 2'000;

/// 16 DCIs of 6 PRBs each, packed from PRB 0: DCI 10 straddles the 64-bit
/// word boundary and DCIs 11-15 live in word 1.
proto::DlMacConfig make_dl_config(std::int64_t target_subframe) {
  proto::DlMacConfig config;
  config.cell_id = 1;
  config.target_subframe = target_subframe;
  for (std::size_t i = 0; i < kDcis; ++i) {
    lte::DlDci dci;
    dci.rnti = static_cast<lte::Rnti>(70 + i);
    dci.rbs.set_range(static_cast<int>(i) * kPrbsPerDci, kPrbsPerDci);
    dci.mcs = static_cast<int>(4 + i);
    dci.harq_pid = static_cast<std::uint8_t>(i % 8);
    dci.new_data = i % 3 != 0;
    config.dcis.push_back(dci);
  }
  return config;
}

/// True when `decoded` carries every DCI field of `sent`; otherwise names
/// the first difference on stderr.
bool same_dl_config(const proto::DlMacConfig& sent, const proto::DlMacConfig& decoded) {
  const auto differs = [](const char* what, std::size_t index) {
    std::fprintf(stderr, "bench_wire: decoded DCIs differ from the encoded ones: %s (#%zu)\n",
                 what, index);
    return false;
  };
  if (decoded.cell_id != sent.cell_id) return differs("cell_id", 0);
  if (decoded.target_subframe != sent.target_subframe) return differs("target_subframe", 0);
  if (decoded.dcis.size() != sent.dcis.size()) return differs("dcis", 0);
  for (std::size_t i = 0; i < sent.dcis.size(); ++i) {
    const auto& a = sent.dcis[i];
    const auto& b = decoded.dcis[i];
    if (a.rnti != b.rnti) return differs("rnti", i);
    if (!(a.rbs == b.rbs)) return differs("rb bitmap", i);
    if (a.mcs != b.mcs) return differs("mcs", i);
    if (a.harq_pid != b.harq_pid) return differs("harq_pid", i);
    if (a.new_data != b.new_data) return differs("new_data", i);
    if (a.carrier != b.carrier) return differs("carrier", i);
  }
  return true;
}

/// Counts what the agent sends and keeps none of it, so the agent stage
/// counts the agent's allocations rather than a link's copies. deliver()
/// plays the master's side of the channel.
class CountingTransport final : public net::Transport {
 public:
  util::Status send(std::span<const std::uint8_t> message) override {
    ++messages_;
    bytes_ += message.size();
    return {};
  }
  void set_receive_callback(ReceiveFn fn) override { receive_ = std::move(fn); }
  std::uint64_t messages_sent() const override { return messages_; }
  std::uint64_t bytes_sent() const override { return bytes_; }
  void deliver(std::span<const std::uint8_t> message) { receive_(message); }

 private:
  ReceiveFn receive_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Forwards the data plane's callbacks to the agent and counts the
/// allocations and time of each on_subframe_start.
class CountingListener final : public stack::EnodebDataPlane::Listener {
 public:
  explicit CountingListener(agent::Agent& agent) : agent_(&agent) {}
  void on_subframe_start(std::int64_t subframe) override {
    const auto allocs0 = bench::allocations();
    const auto t0 = Clock::now();
    agent_->on_subframe_start(subframe);
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    allocs += bench::allocations() - allocs0;
  }
  void on_rach(lte::Rnti rnti, std::int64_t sf) override { agent_->on_rach(rnti, sf); }
  void on_ue_attached(lte::Rnti rnti, std::int64_t sf) override {
    agent_->on_ue_attached(rnti, sf);
  }
  void on_ue_detached(lte::Rnti rnti, std::int64_t sf) override {
    agent_->on_ue_detached(rnti, sf);
  }
  void on_scheduling_request(lte::Rnti rnti, std::int64_t sf) override {
    agent_->on_scheduling_request(rnti, sf);
  }

  std::int64_t ns = 0;
  std::uint64_t allocs = 0;

 private:
  agent::Agent* agent_;
};

struct AgentStage {
  double subframe_ns = 0.0;
  double subframe_allocs = 0.0;
  /// Allocations per DlMacConfig received, decoded and queued by the agent.
  double command_rx_allocs = 0.0;
  double sends_per_subframe = 0.0;
  /// Every command reached the data plane and none of its grants bounced.
  bool commands_applied = false;
};

/// One 20 MHz eNodeB with 16 full-buffer UEs under remote DL scheduling,
/// the way the master drives it per TTI: a 16-DCI DlMacConfig for each
/// subframe, per-TTI stats of `mode` with every flag, and subframe ticks.
AgentStage measure_agent_subframe(proto::ReportMode mode) {
  sim::Simulator sim;
  lte::EnbConfig enb;
  enb.enb_id = 1;
  enb.cells[0].cell_id = 1;
  enb.cells[0].bandwidth_mhz = 20.0;  // 100 PRBs: the 16 DCIs use both bitmap words
  stack::EnodebDataPlane dp(sim, enb);
  agent::AgentConfig config;
  config.dl_scheduler = "remote";
  agent::Agent agent(sim, dp, config);
  CountingListener listener(agent);
  dp.set_listener(&listener);
  CountingTransport transport;
  agent.connect(transport);

  std::vector<lte::Rnti> rntis;
  for (std::size_t i = 0; i < kDcis; ++i) {
    rntis.push_back(dp.add_ue(bench::fixed_cqi_ue(7 + static_cast<int>(i % 8))));
  }
  proto::StatsRequest stats;
  stats.request_id = 1;
  stats.mode = mode;
  stats.periodicity_ttis = 1;
  stats.flags = proto::stats_flags::kAll;
  proto::EventSubscription ticks;
  ticks.events = {proto::EventType::subframe_tick};
  transport.deliver(proto::pack(stats, 1));
  transport.deliver(proto::pack(ticks, 2));

  proto::WireEncoder enc;
  proto::Envelope header;
  proto::DlMacConfig command = make_dl_config(0);
  for (std::size_t i = 0; i < kDcis; ++i) command.dcis[i].rnti = rntis[i];
  std::uint64_t rx_allocs = 0;
  const auto tti = [&](std::int64_t subframe, bool measured) {
    for (const lte::Rnti rnti : rntis) {
      const auto* ue = dp.ue(rnti);
      while (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
        dp.enqueue_dl(rnti, lte::kDefaultDrb, 1500);
      }
    }
    command.target_subframe = subframe;
    header.xid = static_cast<std::uint32_t>(subframe);
    enc.clear();
    proto::encode_envelope(enc, header, command);
    const auto allocs0 = bench::allocations();
    transport.deliver(enc.bytes());
    if (measured) rx_allocs += bench::allocations() - allocs0;
    dp.subframe_begin(subframe);
    dp.subframe_end(subframe);
  };

  std::int64_t subframe = 0;
  for (; subframe < kAgentWarmupTtis; ++subframe) tti(subframe, false);
  listener.ns = 0;
  listener.allocs = 0;
  const auto sent0 = transport.messages_sent();
  const auto applied0 = agent.remote_decisions_applied();
  const auto rejected0 = dp.grants_rejected();
  // Best of kRounds rounds, like measure_rounds.
  constexpr std::int64_t kRoundTtis = kAgentTtis / kRounds;
  AgentStage stage;
  for (int r = 0; r < kRounds; ++r) {
    const auto ns0 = listener.ns;
    for (std::int64_t i = 0; i < kRoundTtis; ++i, ++subframe) tti(subframe, true);
    const double ns = static_cast<double>(listener.ns - ns0) / static_cast<double>(kRoundTtis);
    if (r == 0 || ns < stage.subframe_ns) stage.subframe_ns = ns;
  }

  const auto ttis = static_cast<double>(kAgentTtis);
  stage.subframe_allocs = static_cast<double>(listener.allocs) / ttis;
  stage.command_rx_allocs = static_cast<double>(rx_allocs) / ttis;
  stage.sends_per_subframe = static_cast<double>(transport.messages_sent() - sent0) / ttis;
  stage.commands_applied =
      agent.remote_decisions_applied() - applied0 == static_cast<std::uint64_t>(kAgentTtis) &&
      dp.grants_rejected() == rejected0;
  dp.set_listener(nullptr);
  return stage;
}

// ------------------------------------------------------------ idle cycle --

constexpr std::uint64_t kIdleCycles = 4'000;
constexpr int kIdleRepeats = 5;
/// An idle cycle may cost at most this many times more at the largest
/// fleet than at the smallest.
constexpr double kIdleCycleMaxGrowth = 4.0;

/// ns (best of kIdleRepeats runs) and allocations per ShardCore::run_cycle
/// with `agents` linked agents and nothing to do: no traffic, no apps, no
/// PRB claims, and neither the liveness sweep (off by default) nor the echo
/// round, which visit every agent on purpose. What is left is the per-cycle
/// bookkeeping that must not grow with the fleet.
std::pair<double, double> measure_idle_cycle(std::size_t agents) {
  sim::Simulator sim;
  ctrl::MasterConfig config;
  config.echo_period_cycles = 0;
  ctrl::ShardCore core(sim, config);
  std::vector<CountingTransport> links(agents);
  for (auto& link : links) core.add_agent(link);
  core.publish_now();
  for (std::uint64_t i = 0; i < kWarmup; ++i) core.run_cycle();
  double best_ns = 0.0;
  const auto allocs0 = bench::allocations();
  for (int r = 0; r < kIdleRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIdleCycles; ++i) core.run_cycle();
    const double ns = ns_per_op(kIdleCycles, t0, Clock::now());
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  const double allocs = static_cast<double>(bench::allocations() - allocs0) /
                        static_cast<double>(kIdleRepeats * kIdleCycles);
  return {best_ns, allocs};
}

// --------------------------------------------------------------- results --

struct Results {
  bool decode_matches = false;
  bool dl_decode_matches = false;
  double encode_arena_ns = 0.0;
  double encode_arena_allocs = 0.0;
  double decode_into_ns = 0.0;
  double decode_into_allocs = 0.0;
  bool replay_decode_matches = false;
  std::size_t replay_wire_bytes = 0;
  double decode_replay_ns = 0.0;
  double decode_replay_allocs = 0.0;
  double frame_ns = 0.0;
  double frame_allocs = 0.0;
  double loop_ns = 0.0;
  double loop_allocs = 0.0;
  double ingest_ns = 0.0;
  double ingest_allocs = 0.0;
  // Per UE count (kUeCounts), no RSRP.
  double ue_ingest_allocs[kUeShapes] = {};
  double ue_publish_allocs[kUeShapes] = {};
  std::size_t wire_bytes = 0;
  // Per fleet size (kFleetSizes).
  double publish_ns[kFleets] = {};
  double publish_allocs[kFleets] = {};
  double compose_ns[kFleets] = {};
  double compose_allocs[kFleets] = {};
  // 16-DCI DlMacConfig.
  std::size_t dl_wire_bytes = 0;
  double dl_encode_ns = 0.0;
  double dl_encode_allocs = 0.0;
  double dl_decode_ns = 0.0;
  double dl_decode_allocs = 0.0;
  AgentStage agent_periodic;
  AgentStage agent_triggered;
  // Per fleet size (kFleetSizes): one ShardCore cycle with nothing to do.
  double idle_cycle_ns[kFleets] = {};
  double idle_cycle_allocs[kFleets] = {};
  double idle_cycle_growth() const { return idle_cycle_ns[kFleets - 1] / idle_cycle_ns[0]; }
};

/// True when `decoded` carries every field of `sent`; otherwise names the
/// first difference on stderr.
bool same_reply(const proto::StatsReply& sent, const proto::StatsReply& decoded) {
  const auto differs = [](const char* what, std::size_t index) {
    std::fprintf(stderr, "bench_wire: decoded reply differs from the encoded one: %s (#%zu)\n",
                 what, index);
    return false;
  };
  if (decoded.request_id != sent.request_id) return differs("request_id", 0);
  if (decoded.subframe != sent.subframe) return differs("subframe", 0);
  if (decoded.ue_reports.size() != sent.ue_reports.size()) return differs("ue_reports", 0);
  if (decoded.cell_reports.size() != sent.cell_reports.size()) return differs("cell_reports", 0);
  for (std::size_t i = 0; i < sent.ue_reports.size(); ++i) {
    const auto& a = sent.ue_reports[i];
    const auto& b = decoded.ue_reports[i];
    if (a.rnti != b.rnti) return differs("ue rnti", i);
    if (a.bsr_bytes != b.bsr_bytes) return differs("ue bsr_bytes", i);
    if (a.phr_db != b.phr_db) return differs("ue phr_db", i);
    if (a.wb_cqi != b.wb_cqi) return differs("ue wb_cqi", i);
    if (a.wb_cqi_protected != b.wb_cqi_protected) return differs("ue wb_cqi_protected", i);
    if (a.rlc_queue_bytes != b.rlc_queue_bytes) return differs("ue rlc_queue_bytes", i);
    if (a.pending_harq != b.pending_harq) return differs("ue pending_harq", i);
    if (a.dl_bytes_delivered != b.dl_bytes_delivered) return differs("ue dl_bytes_delivered", i);
    if (a.ul_bytes_received != b.ul_bytes_received) return differs("ue ul_bytes_received", i);
    if (a.ul_buffer_bytes != b.ul_buffer_bytes) return differs("ue ul_buffer_bytes", i);
    if (a.rsrp.size() != b.rsrp.size()) return differs("ue rsrp", i);
    for (std::size_t m = 0; m < a.rsrp.size(); ++m) {
      if (a.rsrp[m].cell_id != b.rsrp[m].cell_id || a.rsrp[m].rsrp_dbm != b.rsrp[m].rsrp_dbm) {
        return differs("ue rsrp entry", i);
      }
    }
  }
  for (std::size_t i = 0; i < sent.cell_reports.size(); ++i) {
    const auto& a = sent.cell_reports[i];
    const auto& b = decoded.cell_reports[i];
    if (a.cell_id != b.cell_id || a.noise_interference_dbm != b.noise_interference_dbm ||
        a.dl_prbs_in_use != b.dl_prbs_in_use || a.ul_prbs_in_use != b.ul_prbs_in_use ||
        a.active_ues != b.active_ues) {
      return differs("cell report", i);
    }
  }
  return true;
}

/// ns and allocations per decode of `wire` (an envelope around `reply`)
/// into a reused envelope and reply. True when the decoded reply matches
/// `reply` field by field.
bool measure_decode(const proto::StatsReply& reply, const std::vector<std::uint8_t>& wire,
                    double& ns, double& allocs) {
  proto::Envelope envelope;
  proto::StatsReply decoded;
  std::tie(ns, allocs) = measure_rounds(kLoopIters, [&] {
    (void)proto::Envelope::decode_into(wire, envelope);
    (void)proto::StatsReply::decode_body_into(envelope.body, decoded);
  });
  return same_reply(reply, decoded);
}

Results run_bench() {
  Results res;
  const proto::StatsReply reply = make_reply();

  // ---- nested-message encode into a reused encoder ----
  {
    proto::WireEncoder enc;
    proto::Envelope header;
    header.xid = kXid;
    volatile std::size_t sink = 0;
    std::tie(res.encode_arena_ns, res.encode_arena_allocs) = measure_rounds(kEncodeIters, [&] {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
      sink = enc.size();
    });
    res.wire_bytes = enc.size();
    (void)sink;
  }

  const auto wire = proto::pack(reply, kXid);

  // ---- decode into a reused envelope and reply ----
  res.decode_matches = measure_decode(reply, wire, res.decode_into_ns, res.decode_into_allocs);
  {
    const proto::StatsReply replay = make_replay_reply();
    const auto replay_wire = proto::pack(replay, kXid);
    res.replay_wire_bytes = replay_wire.size();
    res.replay_decode_matches =
        measure_decode(replay, replay_wire, res.decode_replay_ns, res.decode_replay_allocs);
  }

  // ---- frame + reassemble (4 frames batched per feed, like a socket wake) --
  {
    constexpr std::uint64_t kBatch = 4;
    util::ByteBuffer framed;
    net::FrameAssembler assembler;
    std::uint64_t frames = 0;
    auto on_frame = [&frames](std::span<const std::uint8_t>) { ++frames; };
    auto once = [&] {
      framed.clear();
      for (std::uint64_t b = 0; b < kBatch; ++b) net::frame_into(framed, wire);
      (void)assembler.feed(framed.contents(), on_frame);
    };
    const auto [ns, allocs] = measure_rounds(kLoopIters / kBatch, once);
    res.frame_ns = ns / kBatch;
    res.frame_allocs = allocs / kBatch;
    if (frames == 0) std::printf("unreachable\n");
  }

  // ---- full wire loop: encode -> frame -> reassemble -> decode ----
  {
    proto::WireEncoder enc;
    proto::Envelope header;
    header.xid = kXid;
    util::ByteBuffer framed;
    net::FrameAssembler assembler;
    proto::Envelope rx;
    proto::StatsReply decoded;
    std::uint64_t received = 0;
    // Materialize the FrameFn once: constructing a std::function from a
    // multi-capture lambda on every feed() call would itself allocate.
    const net::FrameAssembler::FrameFn on_frame = [&](std::span<const std::uint8_t> payload) {
      (void)proto::Envelope::decode_into(payload, rx);
      (void)proto::StatsReply::decode_body_into(rx.body, decoded);
      ++received;
    };
    auto once = [&] {
      enc.clear();
      proto::encode_envelope(enc, header, reply);
      framed.clear();
      net::frame_into(framed, enc.bytes());
      (void)assembler.feed(framed.contents(), on_frame);
    };
    std::tie(res.loop_ns, res.loop_allocs) = measure_rounds(kLoopIters, once);
    if (received == 0) std::printf("unreachable\n");
  }

  // ---- ingest -> apply through a standalone ShardCore ----
  std::tie(res.ingest_ns, res.ingest_allocs) = measure_ingest(wire);

  // ---- snapshot publish (1 written agent) and 4-shard compose ----
  for (std::size_t f = 0; f < kFleets; ++f) {
    const std::size_t agents = kFleetSizes[f];
    std::tie(res.publish_ns[f], res.publish_allocs[f]) = measure_publish(agents, reply);

    // The fleet spread over 4 shards by id, as the Coordinator's global ids
    // interleave; each op follows a stats-only publish on one shard.
    {
      ctrl::Rib ribs[kComposeShards];
      std::vector<std::shared_ptr<const ctrl::RibSnapshot>> parts(kComposeShards);
      for (ctrl::AgentId id = 1; id <= agents; ++id) {
        fill_agent(ribs[id % kComposeShards].add_agent(id), id, reply);
      }
      for (std::size_t s = 0; s < kComposeShards; ++s) parts[s] = ribs[s].publish();
      auto composite = ctrl::RibSnapshot::compose(parts);
      std::uint64_t allocs = 0;
      std::int64_t ns = 0;
      for (std::uint64_t i = 0; i < kWarmup + kPublishIters; ++i) {
        const ctrl::AgentId written = written_agent(i, agents);
        const std::size_t s = written % kComposeShards;
        ribs[s].agent(written).last_subframe = static_cast<std::int64_t>(i);
        parts[s] = ribs[s].publish();
        const auto allocs0 = bench::allocations();
        const auto t0 = Clock::now();
        auto next = ctrl::RibSnapshot::compose(parts, composite.get());
        const auto t1 = Clock::now();
        if (i >= kWarmup) {
          allocs += bench::allocations() - allocs0;
          ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
        }
        composite = std::move(next);  // the old version is freed outside the timing
      }
      res.compose_ns[f] = static_cast<double>(ns) / static_cast<double>(kPublishIters);
      res.compose_allocs[f] = static_cast<double>(allocs) / static_cast<double>(kPublishIters);
    }
  }

  // ---- the same with 16- and 64-UE agents and no RSRP lists ----
  for (std::size_t u = 0; u < kUeShapes; ++u) {
    const proto::StatsReply shaped = make_reply(kUeCounts[u], 0);
    res.ue_ingest_allocs[u] = measure_ingest(proto::pack(shaped, kXid)).second;
    res.ue_publish_allocs[u] = measure_publish(kFleetSizes[0], shaped).second;
  }

  // ---- 16-DCI DlMacConfig: encode into a reused encoder, decode into a
  // reused envelope and message ----
  {
    const proto::DlMacConfig command = make_dl_config(123460);
    proto::WireEncoder enc;
    proto::Envelope header;
    header.xid = kXid;
    std::tie(res.dl_encode_ns, res.dl_encode_allocs) = measure_rounds(kCommandIters, [&] {
      enc.clear();
      proto::encode_envelope(enc, header, command);
    });
    res.dl_wire_bytes = enc.size();

    const auto command_wire = proto::pack(command, kXid);
    proto::Envelope envelope;
    proto::DlMacConfig decoded;
    std::tie(res.dl_decode_ns, res.dl_decode_allocs) = measure_rounds(kLoopIters, [&] {
      (void)proto::Envelope::decode_into(command_wire, envelope);
      (void)proto::DlMacConfig::decode_body_into(envelope.body, decoded);
    });
    res.dl_decode_matches = same_dl_config(command, decoded);
  }

  // ---- one agent subframe under remote scheduling ----
  res.agent_periodic = measure_agent_subframe(proto::ReportMode::periodic);
  res.agent_triggered = measure_agent_subframe(proto::ReportMode::triggered);

  // ---- one idle master cycle ----
  for (std::size_t f = 0; f < kFleets; ++f) {
    std::tie(res.idle_cycle_ns[f], res.idle_cycle_allocs[f]) =
        measure_idle_cycle(kFleetSizes[f]);
  }

  return res;
}

// ------------------------------------------------------------ check mode --

std::map<std::string, double> load_baseline(const std::string& path) {
  std::map<std::string, double> baseline;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key) {
    if (key.empty() || key[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (in >> value) baseline[key] = value;
  }
  return baseline;
}

int check_against(const Results& res, const std::string& path) {
  const auto baseline = load_baseline(path);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_wire --check: no baseline entries in %s\n", path.c_str());
    return 1;
  }
  const std::map<std::string, double> measured = {
      {"encode_arena_allocs_per_msg", res.encode_arena_allocs},
      {"decode_into_allocs_per_msg", res.decode_into_allocs},
      {"decode_replay_allocs_per_msg", res.decode_replay_allocs},
      {"frame_reassemble_allocs_per_msg", res.frame_allocs},
      {"wire_loop_allocs_per_msg", res.loop_allocs},
      {"ingest_apply_allocs_per_msg", res.ingest_allocs},
      {"publish_allocs_per_op", *std::max_element(res.publish_allocs, res.publish_allocs + kFleets)},
      {"compose_allocs_per_op", *std::max_element(res.compose_allocs, res.compose_allocs + kFleets)},
      {"dl_command_encode_allocs_per_msg", res.dl_encode_allocs},
      {"dl_command_decode_allocs_per_msg", res.dl_decode_allocs},
      {"agent_command_rx_allocs_per_msg",
       std::max(res.agent_periodic.command_rx_allocs, res.agent_triggered.command_rx_allocs)},
      {"agent_subframe_allocs_periodic", res.agent_periodic.subframe_allocs},
      {"agent_subframe_allocs_triggered", res.agent_triggered.subframe_allocs},
      {"idle_cycle_allocs",
       *std::max_element(res.idle_cycle_allocs, res.idle_cycle_allocs + kFleets)},
  };
  int failures = 0;
  // An idle cycle must cost about the same at every fleet size: a cycle
  // that grows with the fleet walks every agent with nothing to do.
  if (res.idle_cycle_growth() > kIdleCycleMaxGrowth) {
    std::fprintf(stderr,
                 "bench_wire --check: idle cycle grows with the fleet: %.1f ns at %zu agents "
                 "is %.1fx the %.1f ns at %zu (limit %.0fx)\n",
                 res.idle_cycle_ns[kFleets - 1], kFleetSizes[kFleets - 1],
                 res.idle_cycle_growth(), res.idle_cycle_ns[0], kFleetSizes[0],
                 kIdleCycleMaxGrowth);
    ++failures;
  } else {
    std::printf("bench_wire --check: %-34s %.4f <= %.4f ok\n", "idle_cycle_ns_8192_over_16",
                res.idle_cycle_growth(), kIdleCycleMaxGrowth);
  }
  // Publish and compose must cost the same allocations at every fleet size:
  // a count that grows with the fleet is an O(agents) path come back.
  for (std::size_t f = 1; f < kFleets; ++f) {
    if (res.publish_allocs[f] != res.publish_allocs[0] ||
        res.compose_allocs[f] != res.compose_allocs[0]) {
      std::fprintf(stderr,
                   "bench_wire --check: snapshot allocs/op differ across fleet sizes: "
                   "publish %.4f at %zu agents vs %.4f at %zu, compose %.4f vs %.4f\n",
                   res.publish_allocs[f], kFleetSizes[f], res.publish_allocs[0], kFleetSizes[0],
                   res.compose_allocs[f], res.compose_allocs[0]);
      ++failures;
    }
  }
  // Nor may they grow with the UEs of the written agent: a count that does is
  // a per-UE container in the agent node (or the apply path) come back.
  if (res.ue_publish_allocs[1] != res.ue_publish_allocs[0] ||
      res.ue_ingest_allocs[1] != res.ue_ingest_allocs[0]) {
    std::fprintf(stderr,
                 "bench_wire --check: allocs differ between %zu- and %zu-UE agents (no RSRP): "
                 "publish %.4f vs %.4f, ingest->apply %.4f vs %.4f\n",
                 kUeCounts[0], kUeCounts[1], res.ue_publish_allocs[0], res.ue_publish_allocs[1],
                 res.ue_ingest_allocs[0], res.ue_ingest_allocs[1]);
    ++failures;
  }
  for (const auto& [key, limit] : baseline) {
    auto it = measured.find(key);
    if (it == measured.end()) {
      std::fprintf(stderr, "bench_wire --check: unknown baseline key %s\n", key.c_str());
      ++failures;
      continue;
    }
    if (it->second > limit + 1e-9) {
      std::fprintf(stderr,
                   "bench_wire --check: %s regressed: %.4f allocs/msg > baseline %.4f\n",
                   key.c_str(), it->second, limit);
      ++failures;
    } else {
      std::printf("bench_wire --check: %-34s %.4f <= %.4f ok\n", key.c_str(), it->second,
                  limit);
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Logger::instance().set_level(util::LogLevel::error);

  std::string check_path;
  std::string json_path = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(std::strlen("--check="));
    } else {
      json_path = arg;
    }
  }

  const Results res = run_bench();
  if (!res.decode_matches || !res.replay_decode_matches || !res.dl_decode_matches) return 1;
  for (const AgentStage* stage : {&res.agent_periodic, &res.agent_triggered}) {
    // An agent that dropped the master's decisions would allocate nothing
    // for the wrong reason.
    if (!stage->commands_applied) {
      std::fprintf(stderr, "bench_wire: the agent stage did not apply every DL grant\n");
      return 1;
    }
  }

  if (!check_path.empty()) return check_against(res, check_path);

  flexran::bench::print_header("Wire fast path: ns/op and allocations per message");
  flexran::bench::print_note(
      "StatsReply with 16 UE reports (2 RSRP entries each) + 1 cell report.\n"
      "Encode: reused encoder with length-prefix backpatching. Decode: into a\n"
      "reused envelope and reply, checked field by field against the input;\n"
      "replay-shaped: 16 UEs with the perfbench replay agents' value ranges,\n"
      "no RSRP.");
  std::printf("\nwire size: %zu bytes\n\n", res.wire_bytes);
  std::printf("%-34s %10s %14s\n", "stage", "ns/op", "allocs/op");
  std::printf("%-34s %10.1f %14.4f\n", "encode nested (arena)", res.encode_arena_ns,
              res.encode_arena_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "decode (decode_into reuse)", res.decode_into_ns,
              res.decode_into_allocs);
  std::printf("%-34s %10.1f %14.4f\n",
              ("decode, replay-shaped (" + std::to_string(res.replay_wire_bytes) + " B)").c_str(),
              res.decode_replay_ns, res.decode_replay_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "frame + reassemble", res.frame_ns, res.frame_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "wire loop (enc+frame+asm+dec)", res.loop_ns,
              res.loop_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "ingest -> apply (ShardCore)", res.ingest_ns,
              res.ingest_allocs);
  for (std::size_t f = 0; f < kFleets; ++f) {
    const std::string agents = std::to_string(kFleetSizes[f]) + " agents";
    std::printf("%-34s %10.1f %14.4f\n", ("publish, 1 written, " + agents).c_str(),
                res.publish_ns[f], res.publish_allocs[f]);
    std::printf("%-34s %10.1f %14.4f\n", ("compose 4 shards, " + agents).c_str(),
                res.compose_ns[f], res.compose_allocs[f]);
  }
  for (std::size_t u = 0; u < kUeShapes; ++u) {
    const std::string ues = std::to_string(kUeCounts[u]) + " UEs, no RSRP";
    std::printf("%-34s %10s %14.4f\n", ("ingest -> apply, " + ues).c_str(), "-",
                res.ue_ingest_allocs[u]);
    std::printf("%-34s %10s %14.4f\n", ("publish, 1 written, " + ues).c_str(), "-",
                res.ue_publish_allocs[u]);
  }
  std::printf("%-34s %10.1f %14.4f\n", "DL command encode (16 DCIs)", res.dl_encode_ns,
              res.dl_encode_allocs);
  std::printf("%-34s %10.1f %14.4f\n", "DL command decode_into (16 DCIs)", res.dl_decode_ns,
              res.dl_decode_allocs);
  for (const auto& [name, stage] :
       {std::pair{"periodic", &res.agent_periodic}, std::pair{"triggered", &res.agent_triggered}}) {
    std::printf("%-34s %10s %14.4f\n", (std::string("agent command rx, ") + name).c_str(), "-",
                stage->command_rx_allocs);
    std::printf("%-34s %10.1f %14.4f\n", (std::string("agent subframe, ") + name).c_str(),
                stage->subframe_ns, stage->subframe_allocs);
  }
  for (std::size_t f = 0; f < kFleets; ++f) {
    std::printf("%-34s %10.1f %14.4f\n",
                ("idle cycle, " + std::to_string(kFleetSizes[f]) + " agents").c_str(),
                res.idle_cycle_ns[f], res.idle_cycle_allocs[f]);
  }

  std::string fleet_json;
  for (std::size_t f = 0; f < kFleets; ++f) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"agents\":%zu,\"publish_ns\":%.2f,\"publish_allocs_per_op\":%.4f,"
                  "\"compose_ns\":%.2f,\"compose_allocs_per_op\":%.4f}",
                  f == 0 ? "" : ",", kFleetSizes[f], res.publish_ns[f], res.publish_allocs[f],
                  res.compose_ns[f], res.compose_allocs[f]);
    fleet_json += row;
  }
  std::string ue_json;
  for (std::size_t u = 0; u < kUeShapes; ++u) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%s{\"ues\":%zu,\"rsrp\":0,\"ingest_allocs_per_msg\":%.4f,"
                  "\"publish_allocs_per_op\":%.4f}",
                  u == 0 ? "" : ",", kUeCounts[u], res.ue_ingest_allocs[u],
                  res.ue_publish_allocs[u]);
    ue_json += row;
  }
  std::string agent_json;
  for (const auto& [name, stage] :
       {std::pair{"periodic", &res.agent_periodic}, std::pair{"triggered", &res.agent_triggered}}) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\":{\"subframe_ns\":%.2f,\"subframe_allocs\":%.4f,"
                  "\"command_rx_allocs_per_msg\":%.4f,\"sends_per_subframe\":%.4f}",
                  agent_json.empty() ? "" : ",", name, stage->subframe_ns,
                  stage->subframe_allocs, stage->command_rx_allocs, stage->sends_per_subframe);
    agent_json += row;
  }
  std::string idle_json;
  for (std::size_t f = 0; f < kFleets; ++f) {
    char row[128];
    std::snprintf(row, sizeof(row), "%s{\"agents\":%zu,\"ns\":%.2f,\"allocs_per_cycle\":%.4f}",
                  f == 0 ? "" : ",", kFleetSizes[f], res.idle_cycle_ns[f],
                  res.idle_cycle_allocs[f]);
    idle_json += row;
  }
  char idle_growth[64];
  std::snprintf(idle_growth, sizeof(idle_growth), "%.3f", res.idle_cycle_growth());
  char command_json[256];
  std::snprintf(command_json, sizeof(command_json),
                "\"dl_command\":{\"dcis\":%zu,\"wire_bytes\":%zu,\"encode_ns\":%.2f,"
                "\"encode_allocs_per_msg\":%.4f,\"decode_into_ns\":%.2f,"
                "\"decode_into_allocs_per_msg\":%.4f},",
                kDcis, res.dl_wire_bytes, res.dl_encode_ns, res.dl_encode_allocs,
                res.dl_decode_ns, res.dl_decode_allocs);
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      ",\"wire_bytes\":%zu,"
      "\"encode\":{\"arena_ns\":%.2f,\"arena_allocs_per_msg\":%.4f},"
      "\"decode\":{\"into_ns\":%.2f,\"into_allocs_per_msg\":%.4f,\"replay_wire_bytes\":%zu,"
      "\"replay_ns\":%.2f,\"replay_allocs_per_msg\":%.4f},"
      "\"frame\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},"
      "\"wire_loop\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},"
      "\"ingest_apply\":{\"ns\":%.2f,\"allocs_per_msg\":%.4f},",
      res.wire_bytes, res.encode_arena_ns, res.encode_arena_allocs, res.decode_into_ns,
      res.decode_into_allocs, res.replay_wire_bytes, res.decode_replay_ns,
      res.decode_replay_allocs, res.frame_ns, res.frame_allocs, res.loop_ns, res.loop_allocs,
      res.ingest_ns, res.ingest_allocs);
  const std::string json =
      "{" +
      flexran::bench::json_header(
          "wire_fastpath",
          "ues=16 rsrp=2 cells=1 encode_iters=20000 loop_iters=20000 publish_iters=2000 "
          "compose_shards=4 dcis=16 command_iters=20000 agent_ttis=2000 replay_ues=16 "
          "rounds=5 idle_cycles=5x4000") +
      buffer + command_json + "\"agent_subframe\":{" + agent_json +
      "},\"publish_compose\":[" + fleet_json + "],\"ue_scaling\":[" + ue_json +
      "],\"idle_cycle\":[" + idle_json + "],\"idle_cycle_ns_8192_over_16\":" + idle_growth +
      "}";
  std::ofstream out(json_path);
  out << json << "\n";
  std::printf("\n%s\nJSON written to %s\n", json.c_str(), json_path.c_str());
  return 0;
}
