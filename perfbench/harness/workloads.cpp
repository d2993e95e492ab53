#include "workloads.h"

#include <algorithm>
#include <array>

#include "agent/agent.h"
#include "apps/monitoring.h"
#include "apps/remote_scheduler.h"
#include "net/sim_transport.h"
#include "proto/messages.h"
#include "scenario/testbed.h"
#include "stack/enodeb.h"
#include "stack/epc.h"
#include "traffic/udp.h"
#include "util/rng.h"

namespace perfbench {

namespace apps = flexran::apps;
namespace ctrl = flexran::ctrl;
namespace lte = flexran::lte;
namespace net = flexran::net;
namespace proto = flexran::proto;
namespace sim = flexran::sim;

namespace {

constexpr std::size_t kUesPerAgent = 16;
constexpr auto kStatsReply = static_cast<std::size_t>(proto::MessageType::stats_reply);
constexpr auto kDlMacConfig = static_cast<std::size_t>(proto::MessageType::dl_mac_config);
constexpr auto kUlMacConfig = static_cast<std::size_t>(proto::MessageType::ul_mac_config);

/// Fisher-Yates with the repository's deterministic RNG.
template <typename Container>
void shuffle(Container& items, flexran::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

ctrl::CoordinatorConfig coordinator_config(std::size_t shards, std::uint32_t stats_period,
                                           bool obs) {
  ctrl::CoordinatorConfig config;
  config.shards = shards;
  config.shard = flexran::scenario::per_tti_master_config(stats_period);
  config.shard.task_manager.workers = 0;
  config.shard.obs.enabled = obs;
  return config;
}

}  // namespace

// ------------------------------------------------------------------ World

World::World(ctrl::CoordinatorConfig config) : coordinator_(sim_, std::move(config)) {
  wire() = Wire{};
  last_updater_total_.assign(coordinator_.shard_count(), 0.0);
  last_publish_total_.assign(coordinator_.shard_count(), 0.0);
  ticker_.subscribe([this](std::int64_t) { timed_cycle(); }, 500);
  ticker_.start();
}

void World::step() { sim_.run_until((sim_.current_tti() + 1) * sim::kTtiUs + sim::kTtiUs / 2); }

void World::timed_cycle() {
  std::int64_t cpu = 0;
  const std::uint64_t updates_before = coordinator_.updates_applied();
  const std::uint64_t allocs_before = allocs();
  {
    Span span(Kind::cycle);
    const std::int64_t start = cpu_ns();
    coordinator_.run_cycle();
    cpu = cpu_ns() - start;
  }
  const std::uint64_t allocs_after = allocs();
  AllocPause pause;
  if (record_cycles) cycle_ns.push_back(static_cast<std::uint32_t>(cpu));
  const bool traced = tracer().on();
  if (traced) {
    cycle_trace.updates.push_back(
        static_cast<std::uint32_t>(coordinator_.updates_applied() - updates_before));
    cycle_trace.allocs.push_back(static_cast<std::uint32_t>(allocs_after - allocs_before));
  }
  for (std::size_t i = 0; i < coordinator_.shard_count(); ++i) {
    const ctrl::ShardCore& shard = coordinator_.shard(i);
    const double updater = shard.task_manager().updater_time_us().total();
    const double publish = shard.snapshot_publish_us().total();
    if (traced) {
      cycle_trace.updater_us.push_back(updater - last_updater_total_[i]);
      cycle_trace.publish_us.push_back(publish - last_publish_total_[i]);
    }
    last_updater_total_[i] = updater;
    last_publish_total_[i] = publish;
  }
}

bool World::ready() const {
  for (const ctrl::AgentId id : agent_ids_) {
    const ctrl::AgentNode* node = coordinator_.find_agent(id);
    if (node == nullptr || node->enb_id == 0 || node->state != ctrl::SessionState::up ||
        node->hot.size() != kUesPerAgent) {
      return false;
    }
    // A UE counts once the agent has reported its channel.
    for (const std::uint8_t cqi : node->hot.wb_cqi) {
      if (cqi == 0) return false;
    }
  }
  return !agent_ids_.empty();
}

std::string World::scrape() const { return coordinator_.metrics().prometheus_text(); }

std::uint64_t World::commands() const {
  std::uint64_t total = 0;
  for (const TimedApp* app : apps_) total += app->commands();
  return total;
}

std::uint64_t World::reports_failed(std::uint64_t sent) const {
  const Wire& w = wire();
  std::uint64_t applied = coordinator_.updates_applied() - coordinator_.fenced_updates();
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < coordinator_.shard_count(); ++i) {
    pending += coordinator_.shard(i).pending_updates();
  }
  // Every message delivered to the master is either applied, still queued,
  // or lost inside the master (undecodable, shed, fenced).
  const std::uint64_t lost_inside =
      w.master_rx.msgs - std::min(w.master_rx.msgs, applied + pending);
  const std::uint64_t lost_on_link = sent - std::min(sent, w.master_rx.by_type[kStatsReply]);
  return std::min(sent, lost_on_link + lost_inside);
}

void World::check(std::vector<std::string>& failures) const {
  std::size_t down = 0;
  std::size_t short_of_ues = 0;
  for (const ctrl::AgentId id : agent_ids_) {
    const ctrl::AgentNode* node = coordinator_.find_agent(id);
    if (node == nullptr || node->state != ctrl::SessionState::up) ++down;
    if (node != nullptr && node->hot.size() != kUesPerAgent) ++short_of_ues;
  }
  if (down > 0) failures.push_back(std::to_string(down) + " agents not up");
  if (short_of_ues > 0) {
    failures.push_back(std::to_string(short_of_ues) + " agents without all their UEs in the RIB");
  }
  const auto snapshot = coordinator_.rib_snapshot();
  if (snapshot->agent_count() != agent_ids_.size() ||
      snapshot->ue_count() != agent_ids_.size() * kUesPerAgent) {
    failures.push_back("snapshot holds " + std::to_string(snapshot->agent_count()) +
                       " agents / " + std::to_string(snapshot->ue_count()) + " UEs, expected " +
                       std::to_string(agent_ids_.size()) + " / " +
                       std::to_string(agent_ids_.size() * kUesPerAgent));
  }
  std::uint64_t versions = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < coordinator_.shard_count(); ++i) {
    versions += coordinator_.shard(i).snapshot_version();
    decode_errors += coordinator_.shard(i).rx_decode_errors();
    pending += coordinator_.shard(i).pending_updates();
  }
  if (snapshot->version() != versions) {
    failures.push_back("composite version " + std::to_string(snapshot->version()) +
                       " != sum of shard versions " + std::to_string(versions));
  }
  if (decode_errors != 0) failures.push_back(std::to_string(decode_errors) + " decode errors");
  const std::uint64_t delivered = wire().master_rx.msgs;
  if (coordinator_.updates_applied() + pending != delivered) {
    failures.push_back("updates applied " + std::to_string(coordinator_.updates_applied()) +
                       " + queued " + std::to_string(pending) + " != messages delivered " +
                       std::to_string(delivered));
  }
  if (coordinator_.fenced_updates() != 0 || coordinator_.ingest_shed() != 0) {
    failures.push_back("fenced or shed updates");
  }
}

// --------------------------------------------------------- central_sched

namespace {

/// The paper's centralized-scheduling configuration (Fig. 9,
/// scenarios/centralized_scheduling.yaml): real eNodeB data planes and
/// agents, every DL decision made by the master's RemoteSchedulerApp.
class CentralWorld final : public World {
 public:
  static constexpr int kEnbs = 8;
  static constexpr int kScheduleAheadSf = 8;
  static constexpr sim::TimeUs kControlDelayUs = 2 * sim::kUsPerMs;

  explicit CentralWorld(std::uint64_t seed) : World(coordinator_config(1, 1, false)) {
    flexran::util::Rng rng(seed);
    apps::RemoteSchedulerConfig scheduler;
    scheduler.schedule_ahead_sf = kScheduleAheadSf;
    add_shard_app(0, std::make_unique<TimedApp>(
                         std::make_unique<apps::RemoteSchedulerApp>(scheduler),
                         Kind::app_remote_scheduler));
    // Monitoring fires on 4% of cycles: well inside the p99 tail rather
    // than straddling it (a 1% period makes p99 bimodal).
    add_shard_app(0, std::make_unique<TimedApp>(std::make_unique<apps::MonitoringApp>(25),
                                                Kind::app_monitoring));

    sim::LinkConfig link;
    link.delay = kControlDelayUs;
    for (int i = 0; i < kEnbs; ++i) add_enb(static_cast<std::uint32_t>(i), link, rng);
    ticker_.subscribe([this](std::int64_t) { top_up_full_buffer(); }, 900);
  }

  /// Set-up also waits for every UE to finish attaching in its data plane;
  /// until then the master schedules UEs that cannot be served yet.
  bool ready() const override {
    if (!World::ready()) return false;
    for (const auto& enb : enbs_) {
      for (const auto& [rnti, cqi] : enb->ue_cqi) {
        (void)cqi;
        const auto* ue = enb->data_plane->ue(rnti);
        if (ue == nullptr || !ue->connected()) return false;
      }
    }
    return true;
  }

  void on_ready() override { rejected_at_ready_ = grants_rejected(); }

  void begin_drain() override {
    (void)coordinator_.shard(0).pause_app("remote_scheduler");
    for (auto& enb : enbs_) enb->agent->reports().clear();
  }

  Ops ops() const override {
    const Wire& w = wire();
    Ops ops;
    const std::uint64_t reports = w.up_sent.by_type[kStatsReply];
    const std::uint64_t decisions = decisions_flushed();
    ops.attempted = reports + decisions;
    ops.failed = reports_failed(reports) + (decisions - std::min(decisions, applied_decisions()));
    return ops;
  }

  std::uint64_t missed_deadline() const override {
    std::uint64_t missed = 0;
    for (const auto& enb : enbs_) missed += enb->agent->missed_deadline_decisions();
    return missed;
  }

  void check(std::vector<std::string>& failures) const override {
    World::check(failures);
    const std::uint64_t flushed = decisions_flushed();
    if (applied_decisions() + missed_deadline() != flushed) {
      failures.push_back("decisions applied " + std::to_string(applied_decisions()) +
                         " + missed " + std::to_string(missed_deadline()) + " != flushed " +
                         std::to_string(flushed));
    }
    if (flushed == 0) failures.push_back("the master flushed no decisions");
    std::size_t queued = 0;
    for (const auto& enb : enbs_) queued += enb->agent->queued_decisions();
    if (queued != 0) failures.push_back(std::to_string(queued) + " decisions still queued");
    const std::uint64_t rejected = grants_rejected() - rejected_at_ready_;
    if (rejected != 0) {
      failures.push_back(std::to_string(rejected) + " grants rejected after set-up");
    }
    // Each UE's fixed channel CQI must have reached the published snapshot.
    const auto snapshot = coordinator_.rib_snapshot();
    std::size_t wrong_cqi = 0;
    for (const auto& enb : enbs_) {
      for (const auto& [rnti, cqi] : enb->ue_cqi) {
        const ctrl::UeNode* ue = snapshot->find_ue(enb->agent_id, rnti);
        if (ue == nullptr || ue->stats.wb_cqi != cqi) ++wrong_cqi;
      }
    }
    if (wrong_cqi != 0) failures.push_back(std::to_string(wrong_cqi) + " UEs with a wrong CQI");
  }

 private:
  struct Enb {
    std::unique_ptr<flexran::stack::EnodebDataPlane> data_plane;
    std::unique_ptr<flexran::agent::Agent> agent;
    std::unique_ptr<TimedListener> listener;
    net::SimTransportPair transports;
    std::unique_ptr<TimedTransport> master_side;
    std::unique_ptr<TimedTransport> agent_side;
    ctrl::AgentId agent_id = 0;
    std::vector<std::pair<lte::Rnti, int>> ue_cqi;
  };

  void add_enb(std::uint32_t index, const sim::LinkConfig& link, flexran::util::Rng& rng) {
    auto enb = std::make_unique<Enb>();
    const auto enb_id = static_cast<lte::EnbId>(index + 1);
    lte::EnbConfig config;
    config.enb_id = enb_id;
    config.cells[0].cell_id = enb_id;
    enb->data_plane = std::make_unique<flexran::stack::EnodebDataPlane>(sim_, config, nullptr,
                                                                       rng.uniform_int(1, 1 << 30));
    flexran::agent::AgentConfig agent_config;
    agent_config.enb_id = enb_id;
    agent_config.name = "enb-" + std::to_string(enb_id);
    agent_config.dl_scheduler = "remote";
    enb->agent = std::make_unique<flexran::agent::Agent>(sim_, *enb->data_plane, agent_config);
    // The agent installed itself as the listener; the decorator takes its
    // place and forwards to it.
    enb->listener = std::make_unique<TimedListener>(*enb->agent, index + 1);
    enb->data_plane->set_listener(enb->listener.get());
    enb->transports = net::make_sim_transport_pair(sim_, link, link);
    enb->master_side = std::make_unique<TimedTransport>(*enb->transports.a, End::master);
    enb->agent_side = std::make_unique<TimedTransport>(*enb->transports.b, End::agent);
    enb->agent_id = coordinator_.add_agent(*enb->master_side, enb_id);
    add_agent_id(enb->agent_id);
    enb->agent->connect(*enb->agent_side);

    flexran::stack::EnodebDataPlane* dp = enb->data_plane.get();
    ticker_.subscribe(
        [dp, index](std::int64_t tti) {
          Span span(Kind::stack_subframe, index + 1);
          dp->subframe_begin(tti);
        },
        10 + static_cast<int>(index));
    ticker_.subscribe(
        [dp, index](std::int64_t tti) {
          Span span(Kind::stack_subframe, index + 1);
          dp->subframe_end(tti);
        },
        800 + static_cast<int>(index));

    // Half the UEs are full-buffer, half CBR; the seed picks which.
    std::array<bool, kUesPerAgent> full_buffer{};
    std::fill(full_buffer.begin(), full_buffer.begin() + kUesPerAgent / 2, true);
    shuffle(full_buffer, rng);
    for (std::size_t u = 0; u < kUesPerAgent; ++u) {
      flexran::stack::UeProfile profile;
      const int cqi = static_cast<int>(rng.uniform_int(3, 15));
      profile.dl_channel = std::make_unique<flexran::phy::FixedCqiChannel>(cqi);
      profile.attach_after_ttis = 2 + static_cast<std::int64_t>(u) + rng.uniform_int(0, 7);
      profile.config.rnti = next_rnti_++;
      const lte::Rnti rnti = dp->add_ue(std::move(profile));
      epc_.register_bearer(rnti, dp, rnti);
      enb->ue_cqi.emplace_back(rnti, cqi);
      if (full_buffer[u]) {
        full_buffer_.emplace_back(dp, rnti);
      } else {
        cbr_.push_back(std::make_unique<flexran::traffic::UdpCbrSource>(
            sim_,
            [this, rnti](std::uint32_t bytes) {
              Span span(Kind::traffic);
              (void)epc_.downlink(rnti, bytes);
            },
            1.5));
        cbr_.back()->start();
      }
    }
    enbs_.push_back(std::move(enb));
  }

  void top_up_full_buffer() {
    Span span(Kind::traffic);
    for (const auto& [dp, rnti] : full_buffer_) {
      const auto* ue = dp->ue(rnti);
      if (ue != nullptr && ue->dl_queue.total_bytes() < kFullBufferLowWater) {
        (void)epc_.downlink(rnti, kFullBufferLowWater);
      }
    }
  }

  static std::uint64_t decisions_flushed() {
    return wire().down_sent.by_type[kDlMacConfig] + wire().down_sent.by_type[kUlMacConfig];
  }

  std::uint64_t grants_rejected() const {
    std::uint64_t rejected = 0;
    for (const auto& enb : enbs_) rejected += enb->data_plane->grants_rejected();
    return rejected;
  }

  std::uint64_t applied_decisions() const {
    std::uint64_t applied = 0;
    for (const auto& enb : enbs_) applied += enb->agent->remote_decisions_applied();
    return applied;
  }

  static constexpr std::uint32_t kFullBufferLowWater = 60'000;

  flexran::stack::EpcStub epc_;
  std::vector<std::unique_ptr<Enb>> enbs_;
  std::vector<std::pair<flexran::stack::EnodebDataPlane*, lte::Rnti>> full_buffer_;
  std::vector<std::unique_ptr<flexran::traffic::UdpCbrSource>> cbr_;
  lte::Rnti next_rnti_ = 70;
  std::uint64_t rejected_at_ready_ = 0;
};

// ----------------------------------------------------------- replay fleets

/// Network-wide app on the Coordinator's composite view: every cycle it
/// takes the composite snapshot and reads a rotating window of agents.
class FleetViewApp final : public ctrl::App {
 public:
  explicit FleetViewApp(std::size_t agents) : agents_(agents) {}
  std::string_view name() const override { return "fleet_view"; }
  void on_cycle(std::int64_t, ctrl::NorthboundApi& api) override {
    const auto rib = api.rib_snapshot();
    double sum = 0.0;
    std::size_t ues = 0;
    for (std::size_t k = 0; k < kWindow; ++k) {
      cursor_ = cursor_ % agents_ + 1;
      const ctrl::AgentNode* agent = rib->find_agent(static_cast<ctrl::AgentId>(cursor_));
      if (agent == nullptr) continue;
      for (const std::uint8_t cqi : agent->hot.wb_cqi) sum += cqi;
      ues += agent->hot.size();
    }
    mean_cqi_ = ues > 0 ? sum / static_cast<double>(ues) : 0.0;
  }

 private:
  static constexpr std::size_t kWindow = 64;
  std::size_t agents_;
  std::size_t cursor_ = 0;
  double mean_cqi_ = 0.0;
};

struct FleetShape {
  std::size_t shards = 1;
  std::size_t agents = 0;
  /// Each agent reports every `period` TTIs, at a seeded offset.
  std::uint32_t period = 1;
  bool obs = false;
  /// Per-shard MonitoringApp period (0 = none) and a composite-view app.
  std::int64_t monitoring_period = 0;
  bool global_app = false;
};

/// A fleet of replay agents: each completes the real hello/config
/// handshake with the master, then sends pre-encoded 16-UE StatsReplies on
/// a fixed schedule. Set-up stays short and the master dominates the run.
class FleetWorld final : public World {
 public:
  static constexpr std::size_t kVariants = 4;

  FleetWorld(const FleetShape& shape, std::uint64_t seed)
      : World(coordinator_config(shape.shards, shape.period, shape.obs)), shape_(shape) {
    flexran::util::Rng rng(seed);
    if (shape.monitoring_period > 0) {
      // Staggered so at most one shard's scan lands on any cycle.
      const std::int64_t stagger =
          shape.monitoring_period / static_cast<std::int64_t>(shape.shards);
      for (std::size_t s = 0; s < shape.shards; ++s) {
        add_shard_app(s, std::make_unique<TimedApp>(
                             std::make_unique<apps::MonitoringApp>(shape.monitoring_period),
                             Kind::app_monitoring, false, static_cast<std::int64_t>(s) * stagger));
      }
    }
    if (shape.global_app) {
      auto app = std::make_unique<TimedApp>(std::make_unique<FleetViewApp>(shape.agents),
                                            Kind::app_global, /*spans_compose=*/true);
      apps_.push_back(app.get());
      coordinator_.add_app(std::move(app));
    }
    // Offsets: an equal share of the fleet per TTI of the period, shuffled.
    std::vector<std::uint32_t> offsets(shape.agents);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      offsets[i] = static_cast<std::uint32_t>(i % shape.period);
    }
    shuffle(offsets, rng);
    buckets_.resize(shape.period);
    replays_.reserve(shape.agents);
    for (std::size_t i = 0; i < shape.agents; ++i) add_replay(i, offsets[i], rng);
    ticker_.subscribe([this](std::int64_t tti) { send_reports(tti); }, 10);
  }

  void begin_drain() override { draining_ = true; }

  Ops ops() const override { return Ops{reports_sent_, reports_failed(reports_sent_)}; }

  void check(std::vector<std::string>& failures) const override {
    World::check(failures);
    if (unexpected_ != 0) {
      failures.push_back(std::to_string(unexpected_) + " unexpected messages at replay agents");
    }
    if (reports_sent_ == 0) failures.push_back("no reports sent");
    // A sample of UEs must carry the CQI the replay sent last.
    const auto snapshot = coordinator_.rib_snapshot();
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < replays_.size(); i += 61) {
      const Replay& r = *replays_[i];
      if (r.sent == 0) continue;
      const auto& cqi = r.cqi[(r.sent - 1) % kVariants];
      for (std::size_t u = 0; u < kUesPerAgent; ++u) {
        const ctrl::UeNode* ue = snapshot->find_ue(r.id, static_cast<lte::Rnti>(kFirstRnti + u));
        if (ue == nullptr || ue->stats.wb_cqi != cqi[u]) ++wrong;
      }
    }
    if (wrong != 0) failures.push_back(std::to_string(wrong) + " sampled UEs with a stale CQI");
  }

 private:
  static constexpr lte::Rnti kFirstRnti = 70;

  struct Replay {
    lte::EnbId enb_id = 0;
    ctrl::AgentId id = 0;
    net::SimTransportPair transports;
    std::unique_ptr<TimedTransport> master_side;
    std::unique_ptr<TimedTransport> agent_side;
    bool reporting = false;
    std::uint64_t sent = 0;
    std::array<std::vector<std::uint8_t>, kVariants> frames;
    std::array<std::array<std::uint8_t, kUesPerAgent>, kVariants> cqi{};
  };

  void add_replay(std::size_t index, std::uint32_t offset, flexran::util::Rng& rng) {
    auto replay = std::make_unique<Replay>();
    Replay& r = *replay;
    r.enb_id = static_cast<lte::EnbId>(index + 1);
    for (std::size_t v = 0; v < kVariants; ++v) {
      proto::StatsReply reply;
      reply.request_id = kStatsRequestId;
      for (std::size_t u = 0; u < kUesPerAgent; ++u) {
        proto::UeStatsReport ue;
        ue.rnti = static_cast<lte::Rnti>(kFirstRnti + u);
        for (auto& bsr : ue.bsr_bytes) bsr = static_cast<std::uint32_t>(rng.uniform_int(0, 40'000));
        ue.phr_db = static_cast<std::int32_t>(rng.uniform_int(0, 40));
        ue.wb_cqi = static_cast<std::uint8_t>(rng.uniform_int(1, 15));
        ue.wb_cqi_protected = ue.wb_cqi;
        ue.rlc_queue_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 200'000));
        ue.pending_harq = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
        ue.dl_bytes_delivered = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
        ue.ul_bytes_received = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 28));
        ue.ul_buffer_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 20'000));
        r.cqi[v][u] = ue.wb_cqi;
        reply.ue_reports.push_back(ue);
      }
      proto::CellStatsReport cell;
      cell.cell_id = r.enb_id;
      cell.dl_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
      cell.ul_prbs_in_use = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
      cell.active_ues = kUesPerAgent;
      reply.cell_reports.push_back(cell);
      r.frames[v] = encode(reply, 0);
    }
    r.transports = net::make_sim_transport_pair(sim_);
    r.master_side = std::make_unique<TimedTransport>(*r.transports.a, End::master);
    r.agent_side = std::make_unique<TimedTransport>(*r.transports.b, End::agent);
    r.id = coordinator_.add_agent(*r.master_side, r.enb_id);
    add_agent_id(r.id);
    r.agent_side->set_receive_callback(
        [this, &r](std::span<const std::uint8_t> data) { on_master_message(r, data); });
    buckets_[offset].push_back(index);
    replays_.push_back(std::move(replay));

    proto::Hello hello;
    hello.enb_id = r.enb_id;
    hello.name = "replay-" + std::to_string(r.enb_id);
    hello.capabilities = {"mac", "rrc"};
    hello.epoch = kEpoch;
    send(r, hello, 0);
  }

  template <typename M>
  std::vector<std::uint8_t> encode(const M& message, std::uint32_t xid) {
    proto::Envelope header;
    header.xid = xid;
    header.epoch = kEpoch;
    enc_.clear();
    proto::encode_envelope(enc_, header, message);
    const auto bytes = enc_.bytes();
    return {bytes.begin(), bytes.end()};
  }

  template <typename M>
  void send(Replay& r, const M& message, std::uint32_t xid) {
    const auto frame = encode(message, xid);
    (void)r.agent_side->send(proto::traffic_class(M::kType), frame);
  }

  void on_master_message(Replay& r, std::span<const std::uint8_t> data) {
    if (!proto::Envelope::decode_into(data, rx_).ok()) {
      ++unexpected_;
      return;
    }
    switch (rx_.type) {
      case proto::MessageType::enb_config_request: {
        proto::EnbConfigReply reply;
        reply.enb_id = r.enb_id;
        lte::CellConfig cell;
        cell.cell_id = r.enb_id;
        reply.cells.push_back(proto::CellConfigMsg::from(cell));
        send(r, reply, rx_.xid);
        break;
      }
      case proto::MessageType::ue_config_request: {
        proto::UeConfigReply reply;
        for (std::size_t u = 0; u < kUesPerAgent; ++u) {
          proto::UeConfigMsg ue;
          ue.rnti = static_cast<lte::Rnti>(kFirstRnti + u);
          ue.primary_cell = r.enb_id;
          reply.ues.push_back(ue);
        }
        send(r, reply, rx_.xid);
        break;
      }
      case proto::MessageType::lc_config_request: {
        proto::LcConfigReply reply;
        for (std::size_t u = 0; u < kUesPerAgent; ++u) {
          reply.channels.push_back(proto::LcConfigMsg{static_cast<lte::Rnti>(kFirstRnti + u),
                                                      lte::kDefaultDrb, 1});
        }
        send(r, reply, rx_.xid);
        break;
      }
      case proto::MessageType::stats_request: {
        auto request = proto::unpack<proto::StatsRequest>(rx_);
        if (request.ok() && request->request_id == kStatsRequestId &&
            request->mode == proto::ReportMode::periodic &&
            request->periodicity_ttis == shape_.period) {
          r.reporting = true;
        } else {
          ++unexpected_;
        }
        break;
      }
      case proto::MessageType::echo_request: {
        auto request = proto::unpack<proto::EchoRequest>(rx_);
        if (!request.ok()) {
          ++unexpected_;
          break;
        }
        proto::EchoReply reply;
        reply.subframe = sim_.current_tti();
        reply.echoed_timestamp_us = request->timestamp_us;
        send(r, reply, rx_.xid);
        break;
      }
      case proto::MessageType::event_subscription:
        break;  // replay agents raise no events
      default:
        ++unexpected_;
        break;
    }
  }

  void send_reports(std::int64_t tti) {
    if (draining_) return;
    const auto traffic_class = proto::traffic_class(proto::MessageType::stats_reply);
    for (const std::size_t index : buckets_[static_cast<std::size_t>(tti % shape_.period)]) {
      Replay& r = *replays_[index];
      if (!r.reporting) continue;
      Span span(Kind::agent_subframe, static_cast<std::uint32_t>(index + 1));
      (void)r.agent_side->send(traffic_class, r.frames[r.sent % kVariants]);
      ++r.sent;
      ++reports_sent_;
    }
  }

  static constexpr std::uint32_t kEpoch = 1;
  /// per_tti_master_config's default stats request id.
  static constexpr std::uint32_t kStatsRequestId = 1;

  FleetShape shape_;
  std::vector<std::unique_ptr<Replay>> replays_;
  std::vector<std::vector<std::size_t>> buckets_;
  proto::WireEncoder enc_;
  proto::Envelope rx_;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t unexpected_ = 0;
  bool draining_ = false;
};

}  // namespace

WorkloadPlan plan_for(const std::string& workload) {
  WorkloadPlan plan;
  if (workload == "central_sched") {
    plan.warmup_ttis = 1000;
    plan.trace_ttis = 3000;
    plan.setup_repeats = 15;
  } else if (workload == "fleet_sparse") {
    plan.warmup_ttis = 320;
    plan.trace_ttis = 1000;
    plan.setup_repeats = 7;
    plan.scrape_period_ttis = 1000;
  } else if (workload == "fleet_dense") {
    plan.warmup_ttis = 200;
    plan.trace_ttis = 300;
    plan.setup_repeats = 15;
  }
  return plan;
}

std::unique_ptr<World> make_world(const std::string& workload, std::uint64_t seed) {
  if (workload == "central_sched") return std::make_unique<CentralWorld>(seed);
  if (workload == "fleet_sparse") {
    FleetShape shape;
    shape.shards = 4;
    shape.agents = 4096;
    shape.period = 64;
    shape.obs = true;
    shape.monitoring_period = 40;
    shape.global_app = true;
    return std::make_unique<FleetWorld>(shape, seed);
  }
  if (workload == "fleet_dense") {
    FleetShape shape;
    shape.shards = 1;
    shape.agents = 512;
    shape.period = 1;
    return std::make_unique<FleetWorld>(shape, seed);
  }
  return nullptr;
}

}  // namespace perfbench
