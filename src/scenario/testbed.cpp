#include "scenario/testbed.h"

namespace flexran::scenario {

namespace {
/// Throughput window length for the metrics time series.
constexpr sim::TimeUs kMetricsWindow = sim::from_seconds(1.0);

ctrl::CoordinatorConfig coordinator_config(ctrl::MasterConfig master_config,
                                           std::size_t shards) {
  ctrl::CoordinatorConfig config;
  config.shards = shards;
  config.shard = std::move(master_config);
  // Multi-shard runs must never share one checkpoint sink: the shards
  // would clobber each other's saves and a restarted shard could restore
  // its neighbor's agent set. Testbed runs are hermetic, so each shard
  // gets its own in-memory sink (single-shard keeps the template's sink
  // untouched, including one a test injected to inspect).
  if (shards > 1 && config.shard.recovery.checkpoint_sink != nullptr) {
    config.checkpoint_sink_factory = [](std::size_t) {
      return std::make_shared<ctrl::MemoryCheckpointSink>();
    };
  }
  return config;
}

LinkCounters read_link(const net::SimTransport& tx_end, const net::SimTransport& rx_end) {
  return {tx_end.messages_sent(), rx_end.messages_received(), tx_end.frames_dropped(),
          tx_end.frames_shed(), tx_end.frames_corrupted()};
}
}  // namespace

LinkCounters Testbed::Enb::uplink() const { return read_link(*agent_side, *master_side); }

LinkCounters Testbed::Enb::downlink() const { return read_link(*master_side, *agent_side); }

Testbed::Testbed(ctrl::MasterConfig master_config, std::size_t shards)
    : ticker_(sim_), coordinator_(sim_, coordinator_config(std::move(master_config), shards)) {}

void Testbed::start_ticker() {
  if (ticker_started_) return;
  ticker_started_ = true;
  // Master cycle at 500; per-eNodeB subscriptions are added in add_enb.
  ticker_.subscribe([this](std::int64_t) { coordinator_.run_cycle(); }, 500);
  ticker_.subscribe(
      [this](std::int64_t tti) {
        for (auto& hook : tti_hooks_) hook(tti);
        if (sim_.now() - last_metrics_sample_ >= kMetricsWindow) {
          metrics_.sample_window(sim_.now());
          last_metrics_sample_ = sim_.now();
        }
      },
      900);
  ticker_.start();
}

Testbed::Enb& Testbed::add_enb(EnbSpec spec) {
  start_ticker();
  auto enb = std::make_unique<Enb>();
  enb->data_plane = std::make_unique<stack::EnodebDataPlane>(
      sim_, spec.enb, spec.use_radio_env ? &env_ : nullptr, spec.seed);
  spec.agent.enb_id = spec.enb.enb_id;
  enb->agent = std::make_unique<agent::Agent>(sim_, *enb->data_plane, spec.agent);
  enb->transports = net::make_sim_transport_pair(sim_, spec.downlink, spec.uplink);
  enb->master_side = enb->transports.a.get();
  enb->agent_side = enb->transports.b.get();
  // The eNodeB identifier is the durable placement key: the same fleet
  // hashes to the same shards run after run.
  enb->agent_id = coordinator_.add_agent(*enb->master_side, spec.enb.enb_id, spec.shard);
  enb->agent->connect(*enb->agent_side);
  net::SimTransport* agent_side = enb->agent_side;
  enb->agent->set_reconnect_provider([agent_side]() -> net::Transport* {
    // A real TCP connect to the master fails while the channel is
    // partitioned; refuse until the uplink heals so reconnect backoff is
    // exercised the way a deployment would see it.
    return agent_side->down() ? nullptr : agent_side;
  });

  stack::EnodebDataPlane* dp = enb->data_plane.get();
  const lte::EnbId enb_id = spec.enb.enb_id;
  const std::size_t index_for_listeners = enbs_.size();
  delivery_listeners_.emplace_back();
  dp->set_delivery_callback([this, enb_id, index_for_listeners](
                                lte::Rnti rnti, std::uint32_t bytes, lte::Direction direction) {
    metrics_.record(enb_id, rnti, direction, bytes);
    auto ue_it = rnti_to_ue_.find({index_for_listeners, rnti});
    if (ue_it != rnti_to_ue_.end()) {
      ue_bytes_[{ue_it->second, direction}] += bytes;
    }
    for (const auto& listener : delivery_listeners_[index_for_listeners]) {
      listener(rnti, bytes, direction);
    }
  });
  if (x2_enabled_) install_x2_sink(index_for_listeners);

  const int index = static_cast<int>(enbs_.size());
  ticker_.subscribe([dp](std::int64_t tti) { dp->subframe_begin(tti); }, 10 + index);
  ticker_.subscribe([dp](std::int64_t tti) { dp->subframe_end(tti); }, 800 + index);

  enbs_.push_back(std::move(enb));
  return *enbs_.back();
}

lte::Rnti Testbed::add_ue(std::size_t enb_index, stack::UeProfile profile) {
  Enb& enb = *enbs_.at(enb_index);
  if (profile.config.rnti == lte::kInvalidRnti) profile.config.rnti = next_rnti_++;
  const lte::Rnti rnti = enb.data_plane->add_ue(std::move(profile));
  epc_.register_bearer(rnti, enb.data_plane.get(), rnti);
  rnti_to_ue_[{enb_index, rnti}] = rnti;  // UE id == first RNTI
  whereabouts_[rnti] = UeLocation{enb_index, rnti};
  return rnti;
}

void Testbed::enable_x2() {
  x2_enabled_ = true;
  for (std::size_t i = 0; i < enbs_.size(); ++i) install_x2_sink(i);
}

void Testbed::install_x2_sink(std::size_t enb_index) {
  enbs_[enb_index]->agent->set_handover_sink(
      [this, enb_index](stack::UeProfile context, lte::CellId target, lte::Rnti old_rnti) {
        perform_x2(enb_index, std::move(context), target, old_rnti);
      });
}

void Testbed::perform_x2(std::size_t source_index, stack::UeProfile context, lte::CellId target,
                         lte::Rnti old_rnti) {
  auto ue_it = rnti_to_ue_.find({source_index, old_rnti});
  const lte::Rnti ue_id = ue_it != rnti_to_ue_.end() ? ue_it->second : old_rnti;
  if (ue_it != rnti_to_ue_.end()) rnti_to_ue_.erase(ue_it);

  Enb* target_enb = nullptr;
  std::size_t target_index = 0;
  for (std::size_t i = 0; i < enbs_.size(); ++i) {
    if (enbs_[i]->data_plane->cell_id() == target) {
      target_enb = enbs_[i].get();
      target_index = i;
      break;
    }
  }
  if (target_enb == nullptr) {
    // No neighbor owning the target cell: the UE is released.
    whereabouts_.erase(ue_id);
    epc_.remove_bearer(ue_id);
    return;
  }

  context.config.rnti = next_rnti_++;
  const lte::Rnti new_rnti = target_enb->data_plane->add_ue(std::move(context));
  (void)epc_.move_bearer(ue_id, target_enb->data_plane.get(), new_rnti);
  rnti_to_ue_[{target_index, new_rnti}] = ue_id;
  whereabouts_[ue_id] = UeLocation{target_index, new_rnti};
}

std::optional<Testbed::UeLocation> Testbed::locate_ue(lte::Rnti ue_id) const {
  auto it = whereabouts_.find(ue_id);
  if (it == whereabouts_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Testbed::ue_total_bytes(lte::Rnti ue_id, lte::Direction direction) const {
  auto it = ue_bytes_.find({ue_id, direction});
  return it == ue_bytes_.end() ? 0 : it->second;
}

void Testbed::run_ttis(int ttis) {
  start_ticker();
  sim_.run_until((sim_.current_tti() + ttis) * sim::kTtiUs + sim::kTtiUs / 2);
}

ctrl::MasterConfig per_tti_master_config(std::uint32_t stats_period_ttis) {
  ctrl::MasterConfig config;
  proto::StatsRequest stats;
  stats.request_id = 1;
  stats.mode = proto::ReportMode::periodic;
  stats.periodicity_ttis = stats_period_ttis;
  stats.flags = proto::stats_flags::kAll;
  config.default_stats_request = stats;
  config.subscribe_events = {proto::EventType::subframe_tick, proto::EventType::ue_attach,
                             proto::EventType::ue_detach, proto::EventType::rach_attempt,
                             proto::EventType::scheduling_request};
  return config;
}

}  // namespace flexran::scenario
