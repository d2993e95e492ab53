#include "controller/coordinator.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flexran::ctrl {

namespace {
/// FNV-1a over the stable key's bytes. Deliberately not std::hash: the
/// placement must be stable across processes and standard-library
/// implementations, or a restarted deployment would reshuffle its fleet.
std::uint64_t fnv1a(std::uint64_t key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= (key >> (i * 8)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}
}  // namespace

std::size_t Coordinator::assign_shard(std::uint64_t stable_key, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(fnv1a(stable_key) % shard_count);
}

Coordinator::Coordinator(sim::Simulator& sim, CoordinatorConfig config)
    : sim_(sim), config_(std::move(config)) {
  const std::size_t count = config_.shards == 0 ? 1 : config_.shards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MasterConfig shard_config = config_.shard;
    if (count > 1) {
      // Multi-shard: label every metric identity with the shard index and
      // share one registry so the process exports a single surface.
      shard_config.shard = static_cast<int>(i);
      if (shard_config.obs.enabled && shard_config.obs.registry == nullptr) {
        shard_config.obs.registry = &metrics_;
      }
    }
    if (config_.checkpoint_sink_factory) {
      shard_config.recovery.checkpoint_sink = config_.checkpoint_sink_factory(i);
    }
    shards_.push_back(std::make_unique<ShardCore>(sim_, std::move(shard_config)));
  }
  shard_states_.resize(count);
  if (count > 1 && config_.shard.obs.enabled) {
    collector_ = metrics_.add_collector([this](obs::Sink& out) { collect(out); });
  }
}

void Coordinator::collect(obs::Sink& out) const {
  const FailoverStats s = failover_stats();
  for (const auto& f : kFailoverStatFields) out.value(f.name, {}, static_cast<double>(s.*f.field));
  ShardCore::collect_process_wide(out);
}

FailoverStats Coordinator::failover_stats() const {
  FailoverStats s = failover_;
  s.failover_pending = failover_pending_.size();
  return s;
}

AgentId Coordinator::add_agent(net::Transport& transport, std::uint64_t stable_key,
                               std::optional<std::size_t> shard_override) {
  std::size_t index = shard_override.value_or(assign_shard(stable_key, shards_.size()));
  if (index >= shards_.size()) {
    FLEXRAN_LOG(warn, "coordinator") << "shard override " << index << " out of range, hashing";
    index = assign_shard(stable_key, shards_.size());
  }
  if (shard_states_[index].health != ShardHealth::alive) {
    // Never place a new agent on a failed/draining shard: the same
    // rendezvous re-hash that spreads a dead shard's fleet picks the home.
    const std::size_t fallback = rehome_target(stable_key, index);
    if (fallback != kNoShard) index = fallback;
  }
  // Ids are allocated globally so they are unique across shards and the
  // composite view (a shard's own sequence would collide with its peers').
  const AgentId id = next_agent_id_++;
  shards_[index]->add_agent(transport, id);
  shards_[index]->publish_now();
  assignment_[id] = AgentRecord{index, stable_key, &transport};
  composite_ = nullptr;  // topology changed: the cached union is stale
  return id;
}

void Coordinator::remove_agent(AgentId id) {
  auto it = assignment_.find(id);
  if (it == assignment_.end()) return;
  shards_[it->second.shard]->remove_agent(id);
  // Republish and invalidate right here: the owning shard may not cycle
  // for a while, and until it does the removed agent would stay visible
  // in the cached union.
  if (shard_active(it->second.shard)) shards_[it->second.shard]->publish_now();
  assignment_.erase(it);
  failover_pending_.erase(id);
  std::erase(drain_queue_, id);
  composite_ = nullptr;
}

void Coordinator::run_cycle() {
  // Frees the agent nodes that only the superseded composite still held:
  // reclamation is core work at the top of the cycle, not a cost charged to
  // whichever app reads the composite first.
  retired_composite_.reset();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState& state = shard_states_[i];
    if (!shard_active(i)) continue;
    try {
      shards_[i]->run_cycle();
    } catch (const std::exception& e) {
      FLEXRAN_LOG(error, "coordinator") << "shard " << i
                                        << " threw out of run_cycle: " << e.what();
      if (state.suspect_since == 0) state.suspect_since = sim_.now();
      fail_shard(i, e.what());
      continue;
    }
    // Cycle-stall watchdog: a shard whose task manager stops completing
    // cycles while it still owns agents is as dead as one that throws.
    const std::int64_t cycles = shards_[i]->task_manager().cycles_run();
    if (cycles != state.last_cycles) {
      state.last_cycles = cycles;
      state.stalled_for = 0;
      state.suspect_since = 0;
    } else if (config_.shard_stall_cycles > 0 && state.health == ShardHealth::alive) {
      bool owns_agents = false;
      for (const auto& [id, record] : assignment_) {
        (void)id;
        if (record.shard == i) {
          owns_agents = true;
          break;
        }
      }
      if (owns_agents) {
        if (state.stalled_for == 0) state.suspect_since = sim_.now();
        if (++state.stalled_for >= config_.shard_stall_cycles) {
          fail_shard(i, "stopped completing cycles");
        }
      }
    }
  }
  step_drain();
  poll_failover();
  const std::int64_t cycle = cycles_++;
  if (!apps_.empty()) {
    // Global slot: mirrored shard events first (each shard's own apps
    // already saw them), then the composite on_cycle pass.
    while (!pending_events_.empty()) {
      Event event = std::move(pending_events_.front());
      pending_events_.pop_front();
      for (const auto& app : apps_) app->on_event(event, *this);
    }
    for (const auto& app : apps_) app->on_cycle(cycle, *this);
  }
  // Last, so the monitor sees the cycle's final state -- and on every
  // cycle, apps or not: the invariants hold regardless of who is watching.
  if (post_cycle_hook_) post_cycle_hook_(cycle);
}

void Coordinator::quiesce() {
  for (auto& shard : shards_) shard->quiesce();
}

App* Coordinator::add_app(std::unique_ptr<App> app) {
  install_event_taps();
  apps_.push_back(std::move(app));
  App* raw = apps_.back().get();
  raw->on_start(*this);
  return raw;
}

void Coordinator::install_event_taps() {
  if (taps_installed_) return;
  taps_installed_ = true;
  for (auto& shard : shards_) {
    shard->set_event_tap([this](const Event& event) { pending_events_.push_back(event); });
  }
}

std::optional<std::size_t> Coordinator::shard_of(AgentId id) const {
  auto it = assignment_.find(id);
  if (it == assignment_.end()) return std::nullopt;
  return it->second.shard;
}

std::vector<std::pair<AgentId, std::size_t>> Coordinator::assignments() const {
  std::vector<std::pair<AgentId, std::size_t>> out;
  out.reserve(assignment_.size());
  for (const auto& [id, record] : assignment_) out.emplace_back(id, record.shard);
  return out;
}

ShardCore* Coordinator::owner(AgentId id) {
  auto it = assignment_.find(id);
  return it == assignment_.end() ? nullptr : shards_[it->second.shard].get();
}

const ShardCore* Coordinator::owner(AgentId id) const {
  auto it = assignment_.find(id);
  return it == assignment_.end() ? nullptr : shards_[it->second.shard].get();
}

// ------------------------------------------------------- failover / drain

std::size_t Coordinator::rehome_target(std::uint64_t stable_key, std::size_t exclude) const {
  std::size_t best = kNoShard;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == exclude || shard_states_[i].health != ShardHealth::alive) continue;
    // Highest-random-weight: key and shard index hashed together, so each
    // agent ranks the survivors independently and the orphaned fleet
    // spreads instead of dog-piling one shard.
    const std::uint64_t score = fnv1a(stable_key ^ fnv1a(i + 1));
    if (best == kNoShard || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

void Coordinator::rehome_agent(AgentId id, std::size_t target,
                               const proto::CheckpointAgent* durable,
                               std::uint32_t floor_incarnation) {
  AgentRecord& record = assignment_.at(id);
  shards_[record.shard]->remove_agent(id);
  // A draining source keeps contributing to the union; republish it so the
  // moved agent never appears in two parts at once. (A failed source is
  // excluded from the union outright.)
  if (shard_active(record.shard)) shards_[record.shard]->publish_now();
  ShardCore& adopter = *shards_[target];
  // The adopter must not fence behind the dead shard: agents drop frames
  // carrying a strictly older incarnation than the last one they saw.
  adopter.bump_incarnation(floor_incarnation);
  adopter.adopt_agent(*record.transport, id, durable);
  durable != nullptr ? ++failover_.warm_adoptions : ++failover_.cold_adoptions;
  ++failover_.agents_adopted;
  record.shard = target;
  failover_pending_.insert(id);
  // The assignment and the composite view move together: the adopter
  // publishes the adoptee before control returns to any caller.
  adopter.publish_now();
  composite_ = nullptr;
}

void Coordinator::fail_shard(std::size_t index, const char* reason) {
  ShardState& state = shard_states_[index];
  if (state.health == ShardHealth::failed) return;
  state.health = ShardHealth::failed;
  ++failover_.shards_failed;
  if (draining_shard_ == index) {
    // A drain interrupted by death: the rest fails over like any orphan.
    drain_queue_.clear();
    draining_shard_ = kNoShard;
  }
  const sim::TimeUs suspected = state.suspect_since != 0 ? state.suspect_since : sim_.now();
  failover_started_at_ = suspected;
  failover_.failover_duration_us = 0;
  ShardCore& dead = *shards_[index];
  // Join whatever app slot the dead core still has in flight so no worker
  // touches its batches mid-adoption. A throwing core may throw here too;
  // failover must proceed regardless.
  try {
    dead.quiesce();
  } catch (const std::exception&) {
  }
  // Warm-handoff state: decode the dead shard's last checkpoint directly.
  // restart()'s wrong-shard gate does not apply -- this is an explicit
  // cross-shard read by the tier that owns the topology.
  std::map<AgentId, proto::CheckpointAgent> durable;
  std::uint32_t dead_incarnation = dead.incarnation();
  if (const auto& sink = dead.checkpoint_sink(); sink != nullptr) {
    if (auto bytes = sink->load(); bytes.ok()) {
      if (auto checkpoint = proto::MasterCheckpoint::decode(*bytes); checkpoint.ok()) {
        dead_incarnation = std::max(dead_incarnation, checkpoint->incarnation);
        for (auto& agent : checkpoint->agents) durable[agent.id] = std::move(agent);
      }
    }
  }
  // Re-home every orphan by rendezvous re-hash over the survivors. The
  // assignment map and the composite cache are rewritten before control
  // returns: no caller ever observes an agent still assigned to a failed
  // shard next to a composite that contains it.
  std::vector<AgentId> orphans;
  for (const auto& [id, record] : assignment_) {
    if (record.shard == index) orphans.push_back(id);
  }
  std::size_t adopted = 0;
  for (const AgentId id : orphans) {
    const std::size_t target = rehome_target(assignment_.at(id).stable_key, index);
    if (target == kNoShard) {
      ++failover_.agents_orphaned;
      continue;  // no survivor: the agent stays orphaned (last shard down)
    }
    auto durable_it = durable.find(id);
    rehome_agent(id, target, durable_it != durable.end() ? &durable_it->second : nullptr,
                 dead_incarnation);
    ++adopted;
  }
  failover_.orphan_window_us = static_cast<std::uint64_t>(sim_.now() - suspected);
  composite_ = nullptr;
  FLEXRAN_LOG(warn, "coordinator") << "shard " << index << " failed (" << reason << "): "
                                   << adopted << "/" << orphans.size()
                                   << " agents re-homed to survivors";
}

std::size_t Coordinator::kill_shard(std::size_t index) {
  if (index >= shards_.size() || shard_states_[index].health == ShardHealth::failed) return 0;
  if (shard_states_[index].suspect_since == 0) {
    shard_states_[index].suspect_since = sim_.now();
  }
  const std::uint64_t before = failover_.agents_adopted;
  fail_shard(index, "killed");
  return static_cast<std::size_t>(failover_.agents_adopted - before);
}

util::Status Coordinator::drain_shard(std::size_t index) {
  if (index >= shards_.size()) return util::Error::invalid_argument("no such shard");
  if (shard_states_[index].health != ShardHealth::alive) {
    return util::Error::conflict("shard is not alive");
  }
  if (draining_shard_ != kNoShard) {
    return util::Error::conflict("another drain is already in progress");
  }
  bool survivor = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i != index && shard_states_[i].health == ShardHealth::alive) survivor = true;
  }
  if (!survivor) return util::Error::conflict("no surviving shard to drain into");
  // Quiesce once up front: in-flight app batches flush before the first
  // agent moves, so no command lands on a link the shard no longer owns.
  shards_[index]->quiesce();
  shard_states_[index].health = ShardHealth::draining;
  draining_shard_ = index;
  for (const auto& [id, record] : assignment_) {
    if (record.shard == index) drain_queue_.push_back(id);
  }
  if (drain_queue_.empty()) {
    shard_states_[index].health = ShardHealth::drained;
    draining_shard_ = kNoShard;
  }
  return {};
}

void Coordinator::step_drain() {
  if (draining_shard_ == kNoShard) return;
  // One agent per coordinator cycle: the handoff is paced so the adopters'
  // re-sync admission never sees a thundering herd.
  while (!drain_queue_.empty()) {
    const AgentId id = drain_queue_.front();
    drain_queue_.pop_front();
    auto it = assignment_.find(id);
    if (it == assignment_.end() || it->second.shard != draining_shard_) continue;
    const std::size_t target = rehome_target(it->second.stable_key, draining_shard_);
    if (target == kNoShard) {
      drain_queue_.push_front(id);  // survivors vanished mid-drain: retry
      return;
    }
    ShardCore& source = *shards_[draining_shard_];
    source.quiesce();  // flush batched commands before the link moves
    // Live export beats the checkpoint sink: a planned migration hands
    // over state as of *now*, not as of the last periodic save.
    const proto::CheckpointAgent durable = source.export_agent(id);
    const bool warm = durable.epoch != 0 || !durable.name.empty();
    if (failover_pending_.empty()) {
      failover_started_at_ = sim_.now();
      failover_.failover_duration_us = 0;
    }
    rehome_agent(id, target, warm ? &durable : nullptr, source.incarnation());
    ++failover_.agents_drained;
    break;
  }
  if (drain_queue_.empty()) {
    shard_states_[draining_shard_].health = ShardHealth::drained;
    draining_shard_ = kNoShard;
  }
}

void Coordinator::poll_failover() {
  if (failover_pending_.empty()) return;
  for (auto it = failover_pending_.begin(); it != failover_pending_.end();) {
    const AgentNode* node = find_agent(*it);
    if (node != nullptr && node->state == SessionState::up) {
      it = failover_pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (failover_pending_.empty()) {
    failover_.failover_duration_us = static_cast<std::uint64_t>(sim_.now() - failover_started_at_);
    FLEXRAN_LOG(info, "coordinator") << "failover complete: adopted fleet back up in "
                                     << failover_.failover_duration_us / 1000 << " ms";
  }
}

// ------------------------------------------------------------- composite

std::shared_ptr<const RibSnapshot> Coordinator::rib_snapshot() const {
  if (shards_.size() == 1) return shards_.front()->rib_snapshot();
  if (fault_stale_composite_ && composite_ != nullptr) {
    // Injected defect (set_fault_stale_composite): serve the cached
    // composite unconditionally, as a missing invalidation would.
    return composite_;
  }
  std::vector<std::shared_ptr<const RibSnapshot>> parts;
  parts.reserve(shards_.size());
  bool stale = composite_ == nullptr || composed_versions_.size() != shards_.size();
  std::vector<std::uint64_t> versions(shards_.size(), 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // A failed or drained shard's frozen snapshot would keep its moved
    // agents visible in the union forever: exclude it outright.
    if (!shard_active(i)) continue;
    parts.push_back(shards_[i]->rib_snapshot());
    versions[i] = parts.back()->version();
  }
  if (!stale && versions != composed_versions_) stale = true;
  if (!stale) return composite_;
  auto next = RibSnapshot::compose(parts, composite_.get());
  retired_composite_ = std::exchange(composite_, std::move(next));
  composed_versions_ = std::move(versions);
  ++composites_built_;
  return composite_;
}

// ----------------------------------------------------------------- routing

sim::TimeUs Coordinator::now() const { return sim_.now(); }

std::int64_t Coordinator::agent_subframe(AgentId agent) const {
  const ShardCore* shard = owner(agent);
  return shard == nullptr ? 0 : shard->agent_subframe(agent);
}

namespace {
util::Status unassigned(AgentId agent) {
  return util::Error::not_found("agent " + std::to_string(agent) +
                                " not assigned to any shard");
}
}  // namespace

util::Status Coordinator::send_dl_mac_config(AgentId agent, const proto::DlMacConfig& config) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_dl_mac_config(agent, config);
}

util::Status Coordinator::send_ul_mac_config(AgentId agent, const proto::UlMacConfig& config) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_ul_mac_config(agent, config);
}

util::Status Coordinator::send_handover(AgentId agent, const proto::HandoverCommand& command) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_handover(agent, command);
}

util::Status Coordinator::send_abs_config(AgentId agent, const proto::AbsConfig& config) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_abs_config(agent, config);
}

util::Status Coordinator::send_carrier_restriction(AgentId agent,
                                                   const proto::CarrierRestriction& config) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_carrier_restriction(agent, config);
}

util::Status Coordinator::send_drx_config(AgentId agent, const proto::DrxConfig& config) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_drx_config(agent, config);
}

util::Status Coordinator::send_scell_command(AgentId agent, const proto::ScellCommand& command) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_scell_command(agent, command);
}

util::Status Coordinator::request_stats(AgentId agent, const proto::StatsRequest& request) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->request_stats(agent, request);
}

util::Status Coordinator::subscribe_events(AgentId agent, std::vector<proto::EventType> events,
                                           bool enable) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent)
                          : shard->subscribe_events(agent, std::move(events), enable);
}

util::Status Coordinator::push_vsf(AgentId agent, const std::string& module,
                                   const std::string& vsf, const std::string& implementation) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent)
                          : shard->push_vsf(agent, module, vsf, implementation);
}

util::Status Coordinator::send_policy(AgentId agent, const std::string& yaml) {
  ShardCore* shard = owner(agent);
  return shard == nullptr ? unassigned(agent) : shard->send_policy(agent, yaml);
}

// ------------------------------------------------------------ introspection

const AgentNode* Coordinator::find_agent(AgentId id) const {
  const ShardCore* shard = owner(id);
  return shard == nullptr ? nullptr : shard->rib().find_agent(id);
}

const proto::SignalingAccountant& Coordinator::tx_accounting(AgentId agent) const {
  const ShardCore* shard = owner(agent);
  return shard == nullptr ? empty_accounting_ : shard->tx_accounting(agent);
}

const proto::SignalingAccountant& Coordinator::rx_accounting(AgentId agent) const {
  const ShardCore* shard = owner(agent);
  return shard == nullptr ? empty_accounting_ : shard->rx_accounting(agent);
}

const obs::Histogram* Coordinator::control_latency(AgentId agent) const {
  const ShardCore* shard = owner(agent);
  return shard == nullptr ? nullptr : shard->control_latency(agent);
}

ShardStats Coordinator::stats() const {
  ShardStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

OverloadState Coordinator::overload_state() const {
  // Failed/drained shards no longer serve anyone; their frozen state must
  // not keep the fleet "overloaded" (or "recovering", below) forever.
  OverloadState worst = OverloadState::normal;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shard_active(i)) continue;
    if (shards_[i]->overload_state() > worst) worst = shards_[i]->overload_state();
  }
  return worst;
}

bool Coordinator::any_recovering() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shard_active(i) && shards_[i]->recovering()) return true;
  }
  return false;
}

sim::TimeUs Coordinator::last_recovery_duration() const {
  sim::TimeUs longest = 0;
  for (const auto& shard : shards_) {
    longest = std::max(longest, shard->last_recovery_duration());
  }
  return longest;
}

obs::MetricsRegistry& Coordinator::metrics() {
  return shards_.size() == 1 ? shards_.front()->metrics() : metrics_;
}

const obs::MetricsRegistry& Coordinator::metrics() const {
  return shards_.size() == 1 ? shards_.front()->metrics() : metrics_;
}

const char* to_string(Coordinator::ShardHealth health) {
  switch (health) {
    case Coordinator::ShardHealth::alive: return "alive";
    case Coordinator::ShardHealth::draining: return "draining";
    case Coordinator::ShardHealth::drained: return "drained";
    case Coordinator::ShardHealth::failed: return "failed";
  }
  return "?";
}

}  // namespace flexran::ctrl
