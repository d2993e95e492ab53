#include "controller/shard_core.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "net/framing.h"
#include "util/logging.h"

namespace flexran::ctrl {

namespace {

/// Packs (agent, kind, request_id) into one coalesce key. Kinds: 1 =
/// periodic StatsReply (per request_id), 2 = subframe tick (one per
/// agent; each tick supersedes the previous).
std::uint64_t ingest_key(AgentId agent, std::uint64_t kind, std::uint32_t request_id) {
  return (static_cast<std::uint64_t>(agent) << 34) | (kind << 32) | request_id;
}

}  // namespace

ShardCore::ShardCore(sim::Simulator& sim, MasterConfig config)
    : sim_(sim),
      config_(std::move(config)),
      task_manager_(
          config_.task_manager,
          [this](std::int64_t budget_us) {
            drain_pending(budget_us);
            overload_step();
          },
          // The updater slot ends by publishing the cycle's snapshot -- the
          // version the applications dispatched this cycle will read.
          [this] { publish_now(); },
          [this] { dispatch_events(); }) {
  if (config_.obs.registry != nullptr) registry_ = config_.obs.registry;
  pending_.set_budget(config_.overload.ingest);
  task_manager_.set_snapshot_source([this] { return rib_.current(); },
                                    [this] { return sim_.now(); });
  task_manager_.set_command_hooks(BatchingNorthbound::Hooks{
      // Enqueue-time arbitration (worker threads; the arbiter is
      // thread-safe) so apps observe conflicts synchronously...
      [this](AgentId agent, const proto::DlMacConfig& dl) {
        return arbiter_.claim_dl(agent, dl);
      },
      // ...and the flush-time send skips the claim it already made.
      [this](AgentId agent, const proto::DlMacConfig& dl) { return send_to(agent, dl); },
  });
  if (config_.recovery.enabled) {
    incarnation_ = 1;
    resync_tokens_ = config_.recovery.resync_burst;
  }
  // A fresh master constructed over a checkpoint starts in recovery: it
  // knows the fleet it is waiting for, and each returning agent needs only
  // a delta re-sync.
  load_checkpoint();
  if (config_.recovery.enabled && !recovery_expected_.empty()) {
    recovering_ = true;
    recovery_started_at_ = sim_.now();
  }
  if (config_.obs.enabled) {
    std::vector<std::pair<std::string, std::string>> labels;
    if (config_.shard >= 0) labels.emplace_back("shard", std::to_string(config_.shard));
    collector_ = registry_->add_collector([this](obs::Sink& out) { collect(out); },
                                          std::move(labels));
  }
}

ShardCore::~ShardCore() { task_manager_.shutdown(); }

AgentId ShardCore::add_agent(net::Transport& transport, AgentId explicit_id) {
  const AgentId id = explicit_id != 0 ? explicit_id : next_agent_id_++;
  if (explicit_id != 0 && explicit_id >= next_agent_id_) next_agent_id_ = explicit_id + 1;
  AgentLink& link = links_[id];
  link.transport = &transport;
  if (config_.obs.enabled && link.latency == nullptr) {
    // End-to-end control latency, fed by the Envelope timestamp echo in
    // apply_update. Buckets 250us .. ~512ms (doubling).
    link.latency = std::make_unique<obs::Histogram>(obs::exponential_bounds(250.0, 2.0, 12));
  }
  // The frame span is only valid for the callback: the envelope decodes
  // into the receive slot, whose body buffer is recycled, and swap_in
  // exchanges it with a recycled queue entry.
  transport.set_receive_callback([this, id](std::span<const std::uint8_t> data) {
    proto::Envelope& envelope = rx_slot_.envelope;
    const auto status = proto::Envelope::decode_into(data, envelope);
    if (!status.ok()) {
      ++stats_.rx_decode_errors;
      FLEXRAN_LOG(error, "master") << "bad envelope from agent " << id << ": "
                                   << status.error().message;
      return;
    }
    // One shallow pass over the body routes the message; the full decode
    // waits for apply, so a reply superseded in the queue is never decoded.
    const proto::RxClass rx = proto::classify(envelope.type, envelope.body);
    auto link_it = links_.find(id);
    if (link_it != links_.end()) {
      link_it->second.rx.record(rx.category, data.size() + net::kFrameHeaderBytes);
    }
    std::uint64_t key = 0;
    if (envelope.type == proto::MessageType::stats_reply) {
      // A superseded periodic reply coalesces per (agent, request_id);
      // ticks coalesce per agent (each one supersedes the previous).
      key = ingest_key(id, 1, rx.request_id);
    } else if (rx.traffic_class == net::TrafficClass::sync) {
      key = ingest_key(id, 2, 0);
    }
    rx_slot_.agent = id;
    rx_slot_.epoch = envelope.epoch;
    pending_.swap_in(rx.traffic_class, data.size() + net::kFrameHeaderBytes, key, rx_slot_);
  });
  transport.set_disconnect_callback(
      [this, id](util::Error error) { mark_agent_down(id, error.message); });
  rib_.add_agent(id);
  return id;
}

void ShardCore::remove_agent(AgentId id) {
  // Recovery bookkeeping: a removed agent neither holds the readiness
  // quorum nor waits for a re-sync token.
  resync_waiting_.erase(id);
  std::erase(resync_queue_, id);
  resync_started_at_.erase(id);
  warm_restored_.erase(id);
  recovery_expected_.erase(id);
  recovery_resynced_.erase(id);
  // Drop everything still referencing the agent: queued updates, queued
  // events, and in-flight requests (dropped silently, not failed --
  // removal is deliberate, not an outage).
  pending_.remove_if([id](const PendingUpdate& update) { return update.agent == id; });
  std::erase_if(event_queue_, [id](const Event& event) { return event.agent == id; });
  std::erase_if(inflight_, [id](const auto& entry) { return entry.second.agent == id; });
  std::erase_if(original_reports_,
                [id](const auto& entry) { return entry.first.first == id; });
  // Unbind the transport, so a removed agent that stays connected is no
  // longer received. A rehome binds it again in the adopting shard.
  if (const auto link = links_.find(id); link != links_.end()) {
    link->second.transport->set_receive_callback(nullptr);
    link->second.transport->set_disconnect_callback(nullptr);
    links_.erase(link);
  }
  rib_.remove_agent(id);
}

void ShardCore::run_cycle() {
  // Injected faults (docs/sharded_control.md "Shard failover"): a stalled
  // core silently stops completing cycles (the Coordinator's watchdog
  // catches it); a throwing one fails loudly on its next cycle.
  if (cycle_fault_ == CycleFault::stalled) return;
  if (cycle_fault_ == CycleFault::throwing) {
    throw std::runtime_error("injected shard cycle fault");
  }
  const std::int64_t cycle = task_manager_.cycles_run();
  arbiter_.prune(rib_);
  sweep_liveness();
  sweep_requests();
  if (config_.recovery.enabled) {
    admit_resyncs();
    if (recovering_ && config_.recovery.readiness_timeout_us > 0 &&
        sim_.now() - recovery_started_at_ >= config_.recovery.readiness_timeout_us) {
      // A dead agent must not hold the barrier forever: declare ready on
      // whatever fraction of the fleet made it back.
      finish_recovery("timeout");
    }
  }
  maybe_checkpoint();
  if (config_.echo_period_cycles > 0 && cycle % config_.echo_period_cycles == 0) {
    for (const auto& [id, link] : links_) {
      (void)link;
      proto::EchoRequest echo;
      echo.timestamp_us = sim_.now();
      const auto* agent = rib_.find_agent(id);
      echo.subframe = agent != nullptr ? agent->last_subframe : 0;
      (void)send_to(id, echo);
    }
  }
  task_manager_.run_cycle(cycle);
}

void ShardCore::sweep_liveness() {
  const sim::TimeUs stale_after = config_.agent_timeout_us;
  const sim::TimeUs down_after = config_.agent_disconnect_timeout_us;
  if (stale_after <= 0 && down_after <= 0) return;
  const sim::TimeUs now = sim_.now();
  for (const auto& [id, link] : links_) {
    (void)link;
    const AgentNode* agent = rib_.find_agent(id);
    if (agent == nullptr || agent->last_heard == 0) continue;
    // An agent deferred by the re-sync admission gate is silent at the
    // master's own request (the retry-after hint paused its hellos):
    // exempt it from the sweep or the deferral would walk it stale -> down
    // and purge it from the very queue it is waiting in.
    if (resync_waiting_.contains(id)) continue;
    const sim::TimeUs silent = now - agent->last_heard;
    if (stale_after > 0 && !agent->is_stale() && silent > stale_after) {
      AgentNode& writable = rib_.agent(id);
      writable.state = SessionState::stale;
      agent = &writable;  // the barrier may have cloned the node read above
      FLEXRAN_LOG(warn, "master") << "agent " << id << " stale (silent for " << silent / 1000
                                  << " ms)";
    }
    if (down_after > 0 && agent->state != SessionState::down && silent > down_after) {
      mark_agent_down(id, "silent past disconnect timeout");
    }
  }
}

App* ShardCore::add_app(std::unique_ptr<App> app) {
  App* raw = app.get();
  apps_.push_back(std::move(app));
  task_manager_.add_app(raw, *this);
  return raw;
}

// ------------------------------------------------------------- RIB updater

void ShardCore::drain_pending(std::int64_t budget_us) {
  // In real-time mode the updater slot admits at most 4 updates per
  // microsecond of budget, without a clock read per message. That figure
  // is an admission count, not a time bound: a 16-UE stats reply costs
  // 2.3-3.6 us from arrival to published snapshot (bench_wire ingest->apply,
  // 4 runs on a shared 4-vCPU x86 VM, varying with host load), so a full
  // slot can overrun its budget many times over.
  std::size_t limit = pending_.size();
  if (budget_us > 0) {
    limit = std::min(limit, static_cast<std::size_t>(budget_us) * 4);
  }
  std::size_t applied = 0;
  while (applied < limit && pending_.swap_out(apply_slot_)) {
    apply_update(apply_slot_);
    ++applied;
  }
  stats_.updates_applied += applied;
  if (!pending_.empty() && applied == limit) {
    // The slot budget ran out with messages still queued: the updater is
    // saturated, a watchdog input even before anything is shed.
    updater_saturated_cycle_ = true;
    ++stats_.updater_saturations;
  }
}

void ShardCore::overload_step() {
  if (!config_.overload.ingest.enabled()) return;
  const auto& budget = config_.overload.ingest;
  OverloadSample sample;
  if (budget.max_messages > 0) {
    sample.depth_fraction = static_cast<double>(pending_.size()) /
                            static_cast<double>(budget.max_messages);
  }
  if (budget.max_bytes > 0) {
    sample.depth_fraction =
        std::max(sample.depth_fraction,
                 static_cast<double>(pending_.bytes()) / static_cast<double>(budget.max_bytes));
  }
  const std::uint64_t shed_total = pending_.total_shed();
  sample.shed_delta = shed_total - last_shed_total_;
  last_shed_total_ = shed_total;
  sample.updater_saturated = updater_saturated_cycle_;
  updater_saturated_cycle_ = false;

  if (!overload_monitor_.observe(sample)) {
    // While critical persists with continued shedding, keep backing off:
    // the multiplier doubles once per full window up to the cap.
    if (overload_monitor_.state() == OverloadState::critical && sample.shed_delta > 0) {
      if (++critical_shedding_cycles_ >= kOverloadWindowCycles &&
          throttle_multiplier_ < kMaxThrottleBackoff) {
        critical_shedding_cycles_ = 0;
        update_throttle(std::min(throttle_multiplier_ * 2, kMaxThrottleBackoff));
      }
    } else if (sample.shed_delta == 0) {
      critical_shedding_cycles_ = 0;
    }
    return;
  }

  const OverloadState state = overload_monitor_.state();
  critical_shedding_cycles_ = 0;
  switch (state) {
    case OverloadState::normal: update_throttle(1); break;
    case OverloadState::elevated: update_throttle(kElevatedBackoff); break;
    case OverloadState::critical: update_throttle(kCriticalBackoff); break;
  }
  FLEXRAN_LOG(warn, "master") << "overload state -> " << to_string(state)
                              << " (depth " << pending_.size() << " msgs, shed "
                              << shed_total << " total, throttle x" << throttle_multiplier_
                              << ")";
  proto::EventNotification note;
  note.event = proto::EventType::overload_state_changed;
  note.overload_state = static_cast<std::uint8_t>(state);
  note.detail = to_string(state);
  event_queue_.push_back(Event{0, note});
}

void ShardCore::update_throttle(std::uint32_t multiplier) {
  multiplier = std::max(1u, multiplier);
  if (multiplier == throttle_multiplier_) return;
  throttle_multiplier_ = multiplier;
  renegotiate_reports();
}

void ShardCore::renegotiate_reports() {
  for (const auto& [key, original] : original_reports_) {
    const auto& [agent, request_id] = key;
    (void)request_id;
    proto::StatsRequest stretched = original;
    stretched.periodicity_ttis =
        std::max<std::uint32_t>(1, original.periodicity_ttis) * throttle_multiplier_;
    // Untracked: renegotiation is advisory (the Envelope throttle hint is
    // the backstop), and a tracked retry storm is the last thing an
    // overloaded master needs.
    if (send_to(agent, stretched).ok()) ++stats_.throttle_renegotiations;
  }
}

void ShardCore::apply_update(const PendingUpdate& update) {
  using proto::MessageType;
  const proto::Envelope& envelope = update.envelope;
  if (envelope.ts_echo_us != 0) {
    // End-to-end control latency: a timestamp we stamped on an outgoing
    // message, carried to the agent, echoed on its next message, and now
    // reaching the RIB apply -- wire both ways plus every queueing stage.
    auto link_it = links_.find(update.agent);
    if (link_it != links_.end() && link_it->second.latency != nullptr &&
        sim_.now() >= static_cast<sim::TimeUs>(envelope.ts_echo_us)) {
      link_it->second.latency->observe(
          static_cast<double>(sim_.now() - static_cast<sim::TimeUs>(envelope.ts_echo_us)));
    }
  }
  // A message from an agent the RIB no longer holds (removed while its
  // report was in flight) is dropped: only add_agent inserts.
  const AgentNode* known = rib_.find_agent(update.agent);
  if (known == nullptr) return;
  // Session fencing: a message carrying an epoch older than the agent's
  // current session is a straggler from before a restart and must not
  // mutate the RIB. Epoch 0 is the wildcard (pre-epoch senders).
  if (update.epoch != 0 && update.epoch < known->epoch) {
    ++stats_.fenced_updates;
    return;
  }
  AgentNode& agent = rib_.agent(update.agent);
  if (update.epoch > agent.epoch && envelope.type != MessageType::hello) {
    // New-session traffic arrived before its hello (the hello was lost in
    // flight). Adopt the new session and re-sync rather than waiting for
    // the agent's hello retry.
    begin_agent_session(update.agent, update.epoch);
    agent.state = SessionState::resyncing;
    emit_lifecycle_event(update.agent, proto::EventType::agent_reconnected);
    request_resync(update.agent);
  }
  agent.last_heard = sim_.now();
  if (agent.state == SessionState::down && envelope.type != MessageType::hello) {
    // Heard again without a restart: the partition healed. Commands sent
    // into the outage were lost, so re-sync the agent's session state.
    // (A hello runs its own re-sync in on_agent_hello.)
    agent.state = SessionState::resyncing;
    emit_lifecycle_event(update.agent, proto::EventType::agent_reconnected);
    request_resync(update.agent);
  } else if (agent.state == SessionState::stale) {
    agent.state = SessionState::up;
  }
  if (envelope.xid != 0) complete_request(update.agent, envelope.xid);

  // A body that fails to decode inside a well-formed envelope is dropped
  // and counted with the envelopes that failed at receive.
  switch (envelope.type) {
    case MessageType::hello: {
      auto hello = proto::unpack<proto::Hello>(envelope);
      if (!hello.ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      on_agent_hello(update.agent, *hello);
      break;
    }
    case MessageType::echo_reply: {
      auto reply = proto::unpack<proto::EchoReply>(envelope);
      if (!reply.ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      const double rtt = static_cast<double>(sim_.now() - reply->echoed_timestamp_us);
      agent.rtt_estimate_us =
          agent.rtt_estimate_us == 0.0 ? rtt : 0.8 * agent.rtt_estimate_us + 0.2 * rtt;
      break;
    }
    case MessageType::enb_config_reply: {
      auto reply = proto::unpack<proto::EnbConfigReply>(envelope);
      if (!reply.ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      agent.enb_id = reply->enb_id;
      for (const auto& cell : reply->cells) {
        agent.cell(cell.cell_id).config = cell.to_cell_config();
      }
      // The config reply is the last leg of the re-sync handshake.
      if (agent.state == SessionState::resyncing) {
        agent.state = SessionState::up;
        mark_resynced(update.agent);
      }
      break;
    }
    case MessageType::ue_config_reply: {
      auto reply = proto::unpack<proto::UeConfigReply>(envelope);
      if (!reply.ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      for (const auto& ue_msg : reply->ues) {
        const auto config = ue_msg.to_ue_config();
        agent.cell(config.primary_cell);  // a cell a UE names gets a node, configured or not
        UeNode& ue = agent.ues[agent.upsert_ue(config.rnti)];
        ue.cell = config.primary_cell;
        ue.config = config;
        ue.last_update = sim_.now();
      }
      break;
    }
    case MessageType::lc_config_reply:
      break;  // logical channel maps are not tracked beyond UE existence
    case MessageType::stats_reply: {
      if (!proto::StatsReply::decode_body_into(envelope.body, stats_reply_).ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      const proto::StatsReply& reply = stats_reply_;
      // Stats replies do not echo the request xid; the first report
      // completes the tracked request via its request_id.
      complete_stats_request(update.agent, reply.request_id);
      if (reply.subframe > agent.last_subframe) {
        agent.last_subframe = reply.subframe;
        agent.last_subframe_at = sim_.now();
      }
      // Reports arrive in RNTI order, the order of the rows, so each one
      // is first looked for in the row after the previous report's.
      std::size_t next_row = 0;
      for (const auto& report : reply.ue_reports) {
        const std::size_t rows = agent.ues.size();
        const std::size_t row = agent.upsert_ue(report.rnti, next_row);
        next_row = row + 1;
        UeNode& ue = agent.ues[row];
        // First sighting: serve it from the agent's first known cell until
        // its configuration or attach event names the cell.
        if (agent.ues.size() != rows && !agent.cells.empty()) ue.cell = agent.cells.front().id;
        ue.stats = report;
        ue.last_update = sim_.now();
        if (report.wb_cqi > 0) ue.cqi_avg.add(report.wb_cqi);
        agent.hot.write(row, report);
      }
      for (const auto& cell_report : reply.cell_reports) {
        auto& cell = agent.cell(cell_report.cell_id);
        cell.stats = cell_report;
        cell.last_update = sim_.now();
      }
      break;
    }
    case MessageType::event_notification: {
      auto event = proto::unpack<proto::EventNotification>(envelope);
      if (!event.ok()) {
        ++stats_.rx_decode_errors;
        break;
      }
      if (event->event == proto::EventType::subframe_tick) {
        if (event->subframe > agent.last_subframe) {
          agent.last_subframe = event->subframe;
          agent.last_subframe_at = sim_.now();
        }
        break;  // sync ticks are not app events
      }
      if (event->event == proto::EventType::ue_detach && event->rnti != lte::kInvalidRnti) {
        agent.erase_ue(event->rnti);
      }
      if (event->event == proto::EventType::ue_attach && event->rnti != lte::kInvalidRnti) {
        agent.cell(event->cell_id);
        UeNode& ue = agent.ues[agent.upsert_ue(event->rnti)];
        ue.cell = event->cell_id;
        ue.last_update = sim_.now();
      }
      if (event->event == proto::EventType::policy_applied ||
          event->event == proto::EventType::policy_rejected) {
        // The agent echoes the policy's envelope xid; surface it in the
        // event body so apps can correlate too.
        if (event->xid == 0) event->xid = envelope.xid;
        note_policy_verdict(update.agent, *event);
      }
      if (event->event == proto::EventType::vsf_quarantined) {
        rollback_policy(update.agent, *event);
      }
      event_queue_.push_back(Event{update.agent, *event});
      break;
    }
    default:
      FLEXRAN_LOG(warn, "master") << "unexpected message type "
                                  << proto::to_string(envelope.type) << " from agent "
                                  << update.agent;
      break;
  }
}

void ShardCore::on_agent_hello(AgentId id, const proto::Hello& hello) {
  AgentNode& agent = rib_.agent(id);
  const bool restarted = hello.epoch > agent.epoch && agent.epoch != 0;
  const bool was_down = agent.state == SessionState::down;
  if (hello.epoch > agent.epoch) begin_agent_session(id, hello.epoch);
  agent.enb_id = hello.enb_id;
  agent.name = hello.name;
  agent.capabilities = hello.capabilities;
  agent.state = config_.auto_configure ? SessionState::resyncing : SessionState::up;
  if (restarted || was_down) {
    emit_lifecycle_event(id, proto::EventType::agent_reconnected);
  }
  request_resync(id);
}

// -------------------------------------------------------- session lifecycle

void ShardCore::resync_agent(AgentId id) {
  const AgentNode* agent = rib_.find_agent(id);
  if (agent == nullptr) return;
  const bool resyncing = agent->state == SessionState::resyncing;
  if (resyncing && !resync_started_at_.contains(id)) resync_started_at_[id] = sim_.now();
  // Warm restore: the agent's configuration came from the checkpoint, so
  // the three config fetch round-trips are skipped -- the delta re-sync is
  // just re-arming reports and subscriptions.
  const bool delta = warm_restored_.contains(id) && !agent->cells.empty();
  if (config_.auto_configure && !delta) {
    (void)send_to(id, proto::EnbConfigRequest{}, /*track=*/true);
    (void)send_to(id, proto::UeConfigRequest{}, /*track=*/true);
    (void)send_to(id, proto::LcConfigRequest{}, /*track=*/true);
  }
  if (config_.default_stats_request.has_value()) {
    (void)request_stats(id, *config_.default_stats_request);
  }
  if (!config_.subscribe_events.empty()) {
    (void)subscribe_events(id, config_.subscribe_events, true);
  }
  if (delta || !config_.auto_configure) {
    // Nothing left to wait for: the session is immediately serviceable.
    if (resyncing) rib_.agent(id).state = SessionState::up;
    mark_resynced(id);
  }
}

void ShardCore::begin_agent_session(AgentId id, std::uint32_t epoch) {
  AgentNode& agent = rib_.agent(id);
  if (agent.epoch != 0) {
    ++agent.reconnects;
    // Fence the previous session: queued updates and in-flight requests
    // from the old epoch must neither mutate the RIB nor be retried.
    purge_pending(id, epoch);
    fail_agent_requests(id, "session restarted");
    // Verdicts for the old session's policies will never arrive; the
    // applied history survives (it is knowledge about implementations,
    // not about the session).
    if (auto pit = policies_.find(id); pit != policies_.end()) pit->second.pending.clear();
    FLEXRAN_LOG(info, "master") << "agent " << id << " restarted: epoch " << agent.epoch
                                << " -> " << epoch;
  }
  agent.epoch = epoch;
}

void ShardCore::mark_agent_down(AgentId id, const std::string& reason) {
  const AgentNode* known = rib_.find_agent(id);
  if (known == nullptr || known->state == SessionState::down) return;
  rib_.agent(id).state = SessionState::down;
  // A downed agent neither waits for a re-sync token nor keeps its
  // re-sync clock running (it restarts from scratch when heard again).
  resync_waiting_.erase(id);
  std::erase(resync_queue_, id);
  resync_started_at_.erase(id);
  // The session is over; whatever it still had queued or outstanding dies
  // with it. A surviving agent is re-synced when it is heard again.
  purge_pending(id, std::numeric_limits<std::uint32_t>::max());
  fail_agent_requests(id, "agent disconnected");
  if (auto pit = policies_.find(id); pit != policies_.end()) pit->second.pending.clear();
  emit_lifecycle_event(id, proto::EventType::agent_disconnected);
  FLEXRAN_LOG(warn, "master") << "agent " << id << " down: " << reason;
}

void ShardCore::purge_pending(AgentId id, std::uint32_t below_epoch) {
  pending_.remove_if([id, below_epoch](const PendingUpdate& update) {
    return update.agent == id && update.epoch < below_epoch;
  });
}

void ShardCore::fail_agent_requests(AgentId id, const char* reason) {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.agent != id) {
      ++it;
      continue;
    }
    ++stats_.requests_failed;
    FLEXRAN_LOG(warn, "master") << "request xid " << it->first << " ("
                                << proto::to_string(it->second.type) << ") to agent " << id
                                << " failed: " << reason;
    emit_lifecycle_event(id, proto::EventType::request_timeout, it->first);
    it = inflight_.erase(it);
  }
}

void ShardCore::complete_request(AgentId agent, std::uint32_t xid) {
  auto it = inflight_.find(xid);
  if (it == inflight_.end() || it->second.agent != agent) return;
  ++stats_.requests_completed;
  inflight_.erase(it);
}

void ShardCore::complete_stats_request(AgentId agent, std::uint32_t request_id) {
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->second.agent == agent && it->second.type == proto::MessageType::stats_request &&
        it->second.request_id == request_id) {
      ++stats_.requests_completed;
      inflight_.erase(it);
      return;
    }
  }
}

void ShardCore::sweep_requests() {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    PendingRequest& request = it->second;
    if (sim_.now() < request.deadline) {
      ++it;
      continue;
    }
    if (request.attempts < kRequestMaxRetries) {
      ++request.attempts;
      ++stats_.requests_retried;
      request.timeout *= 2;  // back off: the link may be congested, not dead
      request.deadline = sim_.now() + request.timeout;
      auto link = links_.find(request.agent);
      if (link != links_.end() && link->second.transport != nullptr) {
        // Reuse the category and traffic class captured at enqueue time:
        // recomputing from (type, empty body) misbuckets body-dependent
        // types, and a classless send would bypass class-aware accounting.
        link->second.tx.record(request.category,
                               request.wire.size() + net::kFrameHeaderBytes);
        (void)link->second.transport->send(request.cls, request.wire);
      }
      ++it;
    } else {
      ++stats_.requests_failed;
      FLEXRAN_LOG(warn, "master") << "request xid " << it->first << " ("
                                  << proto::to_string(request.type) << ") to agent "
                                  << request.agent << " timed out after " << request.attempts
                                  << " retries";
      emit_lifecycle_event(request.agent, proto::EventType::request_timeout, it->first);
      it = inflight_.erase(it);
    }
  }
}

void ShardCore::emit_lifecycle_event(AgentId id, proto::EventType type,
                                            std::uint32_t xid) {
  proto::EventNotification note;
  note.event = type;
  note.xid = xid;
  const auto* agent = rib_.find_agent(id);
  note.subframe = agent != nullptr ? agent->last_subframe : 0;
  event_queue_.push_back(Event{id, note});
}

// ------------------------------------------------- policy rollback state

void ShardCore::note_policy_verdict(AgentId id, const proto::EventNotification& event) {
  auto pit = policies_.find(id);
  if (pit == policies_.end()) return;
  auto& state = pit->second;
  auto it = state.pending.find(event.xid);
  if (it == state.pending.end()) return;
  if (event.event == proto::EventType::policy_applied) {
    // Promote to last-known-good (dedup against the current head so a
    // rollback re-send does not fill the history with copies).
    if (state.history.empty() || state.history.front() != it->second) {
      state.history.push_front(std::move(it->second));
      if (state.history.size() > kPolicyHistoryCap) state.history.pop_back();
    }
  } else {
    ++stats_.policies_rejected;
    FLEXRAN_LOG(warn, "master") << "agent " << id << " rejected policy (xid " << event.xid
                                << "): " << event.detail;
  }
  state.pending.erase(it);
}

void ShardCore::rollback_policy(AgentId id, const proto::EventNotification& event) {
  auto pit = policies_.find(id);
  if (pit == policies_.end()) return;
  auto& state = pit->second;
  // A policy naming the quarantined implementation must not be promoted to
  // last-known-good even if it once applied cleanly -- purge it, then roll
  // back to the newest survivor.
  if (!event.implementation.empty()) {
    std::erase_if(state.history, [&](const std::string& yaml) {
      return yaml.find(event.implementation) != std::string::npos;
    });
  }
  if (state.history.empty()) {
    FLEXRAN_LOG(warn, "master") << "agent " << id << " quarantined "
                                << event.implementation << " but no known-good policy recorded";
    return;
  }
  ++stats_.policy_rollbacks;
  FLEXRAN_LOG(warn, "master") << "agent " << id << " quarantined " << event.implementation
                              << "; rolling back to last-known-good policy";
  (void)send_policy(id, state.history.front());
}

std::string ShardCore::last_known_good_policy(AgentId agent) const {
  auto it = policies_.find(agent);
  if (it == policies_.end() || it->second.history.empty()) return "";
  return it->second.history.front();
}

// ---------------------------------------------------------- crash recovery

void ShardCore::restart() {
  task_manager_.quiesce();
  ++stats_.master_restarts;
  // Everything volatile dies with the old incarnation -- exactly what a
  // real master process loses in a crash. The transport registry survives:
  // a restarted master re-accepts its connections, and here the agents'
  // endpoints stay attached under the same ids.
  pending_.remove_if([](const PendingUpdate&) { return true; });
  event_queue_.clear();
  inflight_.clear();
  policies_.clear();
  original_reports_.clear();
  resync_queue_.clear();
  resync_waiting_.clear();
  resync_started_at_.clear();
  warm_restored_.clear();
  recovery_expected_.clear();
  recovery_resynced_.clear();
  arbiter_.clear();
  throttle_multiplier_ = 1;
  critical_shedding_cycles_ = 0;
  checkpoint_loaded_ = false;
  // Forget the RIB, keeping a down-state husk per live connection so the
  // readiness barrier knows the fleet it is waiting for.
  rib_.clear();
  for (const auto& [id, link] : links_) {
    (void)link;
    rib_.add_agent(id).state = SessionState::down;
    recovery_expected_.insert(id);
  }
  if (config_.recovery.enabled) {
    ++incarnation_;
    resync_tokens_ = config_.recovery.resync_burst;
    last_token_refill_ = sim_.now();
  }
  load_checkpoint();
  if (config_.recovery.enabled && !recovery_expected_.empty()) {
    recovering_ = true;
    recovery_started_at_ = sim_.now();
    recovery_ready_at_ = 0;
  }
  FLEXRAN_LOG(warn, "master") << "restarted (incarnation " << incarnation_ << ", "
                              << (checkpoint_loaded_ ? "warm" : "cold") << ", expecting "
                              << recovery_expected_.size() << " agents)";
  // Announce the new incarnation so agents learn of the restart from the
  // first frame instead of discovering it through fenced traffic.
  for (const auto& [id, link] : links_) {
    (void)link;
    proto::EchoRequest echo;
    echo.timestamp_us = sim_.now();
    (void)send_to(id, echo);
  }
}

void ShardCore::request_resync(AgentId id) {
  if (!config_.recovery.enabled || config_.recovery.resync_tokens_per_s <= 0.0) {
    resync_agent(id);  // pacing off: the seed path
    return;
  }
  refill_resync_tokens();
  if (resync_tokens_ >= 1.0 && resync_queue_.empty()) {
    resync_tokens_ -= 1.0;
    ++stats_.resyncs_admitted;
    resync_agent(id);
    return;
  }
  // No token (or a queue ahead): defer. The agent stays `resyncing`; every
  // envelope it receives meanwhile carries the retry-after hint, and the
  // master drives the re-sync itself once a token frees up.
  if (resync_waiting_.insert(id).second) {
    resync_queue_.push_back(id);
    ++stats_.resyncs_paced;
    // Deliver the hint promptly rather than waiting for scheduled traffic.
    proto::EchoRequest echo;
    echo.timestamp_us = sim_.now();
    (void)send_to(id, echo);
  }
}

void ShardCore::refill_resync_tokens() {
  if (config_.recovery.resync_tokens_per_s <= 0.0) return;
  const sim::TimeUs now = sim_.now();
  if (last_token_refill_ == 0) {
    last_token_refill_ = now;
    return;
  }
  const double elapsed_s = static_cast<double>(now - last_token_refill_) / 1e6;
  last_token_refill_ = now;
  resync_tokens_ = std::min(config_.recovery.resync_burst,
                            resync_tokens_ + elapsed_s * config_.recovery.resync_tokens_per_s);
}

void ShardCore::admit_resyncs() {
  refill_resync_tokens();
  while (!resync_queue_.empty() && resync_tokens_ >= 1.0) {
    const AgentId id = resync_queue_.front();
    resync_queue_.pop_front();
    resync_waiting_.erase(id);
    const AgentNode* known = rib_.find_agent(id);
    if (known == nullptr || known->state == SessionState::down) continue;
    // The wait does not count as silence: restart the sweep clock now or
    // a long deferral would trip the disconnect timeout before the just
    // -issued config fetches can answer.
    rib_.agent(id).last_heard = sim_.now();
    resync_tokens_ -= 1.0;
    ++stats_.resyncs_admitted;
    resync_agent(id);
  }
}

void ShardCore::mark_resynced(AgentId id) {
  if (auto it = resync_started_at_.find(id); it != resync_started_at_.end()) {
    resync_duration_.observe(static_cast<double>(sim_.now() - it->second));
    resync_started_at_.erase(it);
  }
  // Whatever warm state sped up this re-sync is consumed: a later re-sync
  // (agent crash, partition) must fetch fresh configuration.
  warm_restored_.erase(id);
  if (!recovering_) return;
  if (recovery_resynced_.insert(id).second) {
    // The session is serviceable again: re-own the delegated control state
    // by re-pushing the last-known-good policy from the checkpoint.
    if (auto pit = policies_.find(id); pit != policies_.end() && !pit->second.history.empty()) {
      if (send_policy(id, pit->second.history.front()).ok()) ++stats_.policies_repushed;
    }
  }
  if (!recovery_expected_.empty() &&
      static_cast<double>(recovery_resynced_.size()) >=
          config_.recovery.readiness_quorum * static_cast<double>(recovery_expected_.size())) {
    finish_recovery("quorum");
  }
}

void ShardCore::finish_recovery(const char* how) {
  if (!recovering_) return;
  recovering_ = false;
  recovery_ready_at_ = sim_.now();
  FLEXRAN_LOG(info, "master") << "recovery complete (" << how << "): "
                              << recovery_resynced_.size() << "/" << recovery_expected_.size()
                              << " agents re-synced in "
                              << (recovery_ready_at_ - recovery_started_at_) / 1000 << " ms";
}

void ShardCore::load_checkpoint() {
  const auto& sink = config_.recovery.checkpoint_sink;
  if (sink == nullptr) return;
  auto bytes = sink->load();
  if (!bytes.ok()) return;  // nothing saved yet: cold start
  auto checkpoint = proto::MasterCheckpoint::decode(*bytes);
  if (!checkpoint.ok()) {
    ++stats_.checkpoints_rejected;
    FLEXRAN_LOG(error, "master") << "checkpoint rejected: " << checkpoint.error().message;
    return;
  }
  // Wrong-shard gate: under one coordinator every shard has its own sink,
  // and a restore must never resurrect a neighbor's (or a standalone
  // master's) agent set -- the ids would collide with agents the other
  // shards still own.
  if (checkpoint->shard != config_.shard) {
    ++stats_.checkpoints_rejected;
    FLEXRAN_LOG(error, "master") << "checkpoint rejected: written by shard "
                                 << checkpoint->shard << ", this core is shard "
                                 << config_.shard;
    return;
  }
  checkpoint_loaded_ = true;
  if (config_.recovery.enabled) {
    // Fencing must stay monotonic across the restart: resume above the
    // incarnation that wrote the checkpoint.
    incarnation_ = std::max(incarnation_, checkpoint->incarnation + 1);
  }
  for (const auto& saved : checkpoint->agents) import_durable(saved);
  FLEXRAN_LOG(info, "master") << "loaded checkpoint: " << checkpoint->agents.size()
                              << " agents, incarnation " << checkpoint->incarnation;
}

void ShardCore::maybe_checkpoint() {
  if (config_.recovery.checkpoint_period_us <= 0 ||
      config_.recovery.checkpoint_sink == nullptr) {
    return;
  }
  // After a failed save the next attempt comes after the backoff, not a
  // full period: the shard should not run a whole checkpoint period more
  // exposed to cold recovery because one write failed.
  const sim::TimeUs wait = checkpoint_backoff_us_ > 0 ? checkpoint_backoff_us_
                                                      : config_.recovery.checkpoint_period_us;
  if (sim_.now() - last_checkpoint_at_ < wait) return;
  (void)save_checkpoint();
}

util::Status ShardCore::save_checkpoint() {
  const auto& sink = config_.recovery.checkpoint_sink;
  if (sink == nullptr) return util::Error::invalid_argument("no checkpoint sink configured");
  last_checkpoint_at_ = sim_.now();
  auto status = sink->save(build_checkpoint().encode());
  if (status.ok()) {
    ++stats_.checkpoints_saved;
    checkpoint_backoff_us_ = 0;
  } else {
    ++stats_.checkpoint_write_failures;
    // Exponential backoff from 10 ms, capped at the checkpoint period. The
    // failed attempt is harmless on disk: the sink's tmp+rename protocol
    // means load() still returns the last complete checkpoint.
    constexpr sim::TimeUs kRetryBaseUs = 10'000;
    const sim::TimeUs cap = config_.recovery.checkpoint_period_us > 0
                                ? config_.recovery.checkpoint_period_us
                                : kRetryBaseUs;
    checkpoint_backoff_us_ = checkpoint_backoff_us_ == 0
                                 ? std::min(kRetryBaseUs, cap)
                                 : std::min(checkpoint_backoff_us_ * 2, cap);
    FLEXRAN_LOG(error, "master") << "checkpoint save failed: " << status.error().message
                                 << " (retry in " << checkpoint_backoff_us_ / 1000 << " ms)";
  }
  return status;
}

proto::MasterCheckpoint ShardCore::build_checkpoint() const {
  proto::MasterCheckpoint checkpoint;
  checkpoint.incarnation = incarnation_;
  checkpoint.saved_at_us = static_cast<std::uint64_t>(sim_.now());
  checkpoint.shard = config_.shard;
  // The full link set, including agents whose durable state is still empty
  // (no hello yet): failover needs to know every agent the shard owned,
  // not just the ones worth restoring warm.
  for (const auto& [id, link] : links_) {
    (void)link;
    checkpoint.agent_ids.push_back(id);
  }
  for (const auto& [id, agent] : rib_.agents()) {
    // Only durable state: identity, configuration, epoch. Agents that never
    // completed a hello have nothing worth restoring.
    if (agent->epoch == 0 && agent->name.empty()) continue;
    checkpoint.agents.push_back(export_agent(id));
  }
  return checkpoint;
}

proto::CheckpointAgent ShardCore::export_agent(AgentId id) const {
  proto::CheckpointAgent saved;
  saved.id = id;
  const AgentNode* agent = rib_.find_agent(id);
  if (agent == nullptr) return saved;
  saved.name = agent->name;
  saved.capabilities = agent->capabilities;
  saved.epoch = agent->epoch;
  saved.config.enb_id = agent->enb_id;
  for (const auto& cell : agent->cells) {
    saved.config.cells.push_back(proto::CellConfigMsg::from(cell.config));
  }
  for (const auto& [key, report] : original_reports_) {
    if (key.first == id) saved.reports.push_back(report);
  }
  if (auto it = policies_.find(id); it != policies_.end()) {
    saved.policy_history.assign(it->second.history.begin(), it->second.history.end());
  }
  return saved;
}

void ShardCore::import_durable(const proto::CheckpointAgent& saved) {
  const AgentId id = saved.id;
  AgentNode& node = rib_.add_agent(id);
  node.enb_id = saved.config.enb_id;
  node.name = saved.name;
  node.capabilities = saved.capabilities;
  node.epoch = saved.epoch;
  if (node.state != SessionState::down) node.state = SessionState::down;
  for (const auto& cell : saved.config.cells) {
    node.cell(cell.cell_id).config = cell.to_cell_config();
  }
  for (const auto& report : saved.reports) {
    original_reports_[{id, report.request_id}] = report;
  }
  if (!saved.policy_history.empty()) {
    policies_[id].history.assign(saved.policy_history.begin(), saved.policy_history.end());
  }
  warm_restored_.insert(id);
  recovery_expected_.insert(id);
}

void ShardCore::bump_incarnation(std::uint32_t floor) {
  if (!config_.recovery.enabled) return;
  incarnation_ = std::max(incarnation_, floor);
}

void ShardCore::adopt_agent(net::Transport& transport, AgentId id,
                            const proto::CheckpointAgent* durable) {
  add_agent(transport, id);  // rebinds the connection's callbacks to this core
  // The agent keeps talking on the surviving connection; until its next
  // message (or re-hello against this core's incarnation) lands here, the
  // session is down from this core's point of view. Its first frame walks
  // the reconnect path into the paced re-sync admission.
  rib_.agent(id).state = SessionState::down;
  if (durable != nullptr && durable->id == id) {
    import_durable(*durable);  // warm handoff: next re-sync is a delta
  } else if (config_.recovery.enabled) {
    recovery_expected_.insert(id);
  }
  if (config_.recovery.enabled) {
    recovery_resynced_.erase(id);
    if (!recovering_) {
      // Raise the readiness barrier for the adopted set: commands to
      // not-yet-resynced agents are held, exactly as after a restart.
      // Already-up agents on this shard are unaffected.
      recovering_ = true;
      recovery_started_at_ = sim_.now();
      recovery_ready_at_ = 0;
    }
  }
  // Announce this core's incarnation on the adopted link so the agent
  // learns its master moved from the first frame instead of discovering
  // the adoption through fenced traffic.
  proto::EchoRequest echo;
  echo.timestamp_us = sim_.now();
  (void)send_to(id, echo);
}

void ShardCore::dispatch_events() {
  while (!event_queue_.empty()) {
    Event event = std::move(event_queue_.front());
    event_queue_.pop_front();
    for (const auto& app : apps_) app->on_event(event, *this);
    // The Coordinator's mirror runs last: global apps see the event only
    // after the owning shard's apps did (same order as a single master).
    if (event_tap_) event_tap_(event);
  }
}

// ------------------------------------------------------------------- sends

template <typename M>
util::Status ShardCore::send_to(AgentId agent, const M& message, bool track) {
  auto it = links_.find(agent);
  if (it == links_.end() || it->second.transport == nullptr) {
    return util::Error::not_found("no transport for agent");
  }
  proto::Envelope envelope;
  envelope.type = M::kType;
  envelope.xid = next_xid_++;
  const AgentNode* node = rib_.find_agent(agent);
  envelope.epoch = node != nullptr ? node->epoch : 0;
  if (config_.overload.ingest.enabled()) {
    // Piggyback the overload state + throttle hint on every outgoing
    // message while non-normal; both encode to nothing when healthy.
    envelope.queue_status = static_cast<std::uint8_t>(overload_monitor_.state());
    envelope.throttle_hint = throttle_multiplier_ > 1 ? throttle_multiplier_ : 0;
  }
  if (config_.obs.enabled) envelope.ts_us = static_cast<std::uint64_t>(sim_.now());
  if (config_.recovery.enabled) {
    // Stamp the incarnation on every send so agents can fence traffic from
    // a dead master and detect a restart from the first frame. Agents whose
    // full re-sync the admission gate deferred also get the retry-after
    // hint piggybacked (the throttle-hint idiom).
    envelope.master_epoch = incarnation_;
    if (resync_waiting_.contains(agent)) {
      envelope.retry_after_ms =
          static_cast<std::uint32_t>(config_.recovery.resync_retry_after_ms);
    }
  }
  const proto::MessageCategory category = proto::categorize(message);
  if (recovering_ && category == proto::MessageCategory::commands) {
    // App readiness gating: no command reaches an agent that has not yet
    // re-synced with this incarnation. Apps acting before the barrier drops
    // would be scheduling against a half-rebuilt world view.
    if (node == nullptr || node->state != SessionState::up) {
      ++stats_.commands_held;
      return util::Error::conflict("recovering: agent not re-synced");
    }
  }
  if (recovering_ && category == proto::MessageCategory::commands) {
    // Invariant tripwire, deliberately separate from the gate above: dead
    // code today, but if the gate is ever weakened this records the
    // command that escaped and the InvariantMonitor flags the increase.
    if (node == nullptr || node->state != SessionState::up) ++stats_.commands_sent_unresynced;
  }
  // Reused per-shard scratch encoder (sends happen on the coordinator
  // thread only): body and envelope are written in one pass via length
  // backpatching, so a steady-state send allocates nothing.
  send_enc_.clear();
  proto::encode_envelope(send_enc_, envelope, message);
  const auto wire = send_enc_.bytes();
  const net::TrafficClass cls = proto::traffic_class(message);
  it->second.tx.record(category, wire.size() + net::kFrameHeaderBytes);
  if (track && config_.request_timeout_us > 0) {
    PendingRequest request;
    request.agent = agent;
    request.type = M::kType;
    request.xid = envelope.xid;
    request.epoch = envelope.epoch;
    if constexpr (std::is_same_v<M, proto::StatsRequest>) {
      request.request_id = message.request_id;
    }
    request.category = category;
    request.cls = cls;
    // Tracked requests keep an owned copy for retransmission; the scratch
    // buffer is reused on the next send.
    request.wire.assign(wire.begin(), wire.end());
    request.timeout = config_.request_timeout_us;
    request.deadline = sim_.now() + request.timeout;
    inflight_.emplace(envelope.xid, std::move(request));
  }
  return it->second.transport->send(cls, wire);
}

std::int64_t ShardCore::agent_subframe(AgentId agent) const {
  const auto* node = rib_.find_agent(agent);
  return node == nullptr ? 0 : node->last_subframe;
}

util::Status ShardCore::send_dl_mac_config(AgentId agent,
                                                  const proto::DlMacConfig& config) {
  // Reject DL MAC configs whose PRBs overlap a decision another app
  // already issued for the same (agent, subframe) -- paper Sec. 7.3.
  auto claimed = arbiter_.claim_dl(agent, config);
  if (!claimed.ok()) return claimed;
  return send_to(agent, config);
}

util::Status ShardCore::send_ul_mac_config(AgentId agent,
                                                  const proto::UlMacConfig& config) {
  return send_to(agent, config);
}

util::Status ShardCore::send_handover(AgentId agent,
                                             const proto::HandoverCommand& command) {
  auto status = send_to(agent, command);
  // A handover sourced from a recovering shard would be decided against a
  // half-rebuilt RIB; apps honor the snapshot readiness guard, so any
  // increase here is an invariant violation, not a metric.
  if (status.ok() && recovering_) ++stats_.handovers_while_recovering;
  return status;
}

util::Status ShardCore::send_abs_config(AgentId agent, const proto::AbsConfig& config) {
  return send_to(agent, config);
}

util::Status ShardCore::send_carrier_restriction(AgentId agent,
                                                        const proto::CarrierRestriction& config) {
  return send_to(agent, config);
}

util::Status ShardCore::send_drx_config(AgentId agent, const proto::DrxConfig& config) {
  return send_to(agent, config);
}

util::Status ShardCore::send_scell_command(AgentId agent,
                                                  const proto::ScellCommand& command) {
  return send_to(agent, command);
}

util::Status ShardCore::request_stats(AgentId agent, const proto::StatsRequest& request) {
  if (config_.overload.ingest.enabled()) {
    if (request.flags == 0) {
      original_reports_.erase({agent, request.request_id});
    } else if (request.mode == proto::ReportMode::periodic) {
      // Capture the as-issued request so throttling can stretch it and
      // recovery can restore it. Under an active throttle the agent gets
      // the stretched period right away.
      original_reports_[{agent, request.request_id}] = request;
      if (throttle_multiplier_ > 1) {
        proto::StatsRequest stretched = request;
        stretched.periodicity_ttis =
            std::max<std::uint32_t>(1, request.periodicity_ttis) * throttle_multiplier_;
        return send_to(agent, stretched, /*track=*/true);
      }
    }
  }
  return send_to(agent, request, /*track=*/true);
}

util::Status ShardCore::subscribe_events(AgentId agent,
                                                std::vector<proto::EventType> events,
                                                bool enable) {
  proto::EventSubscription subscription;
  subscription.events = std::move(events);
  subscription.enable = enable;
  return send_to(agent, subscription);
}

util::Status ShardCore::push_vsf(AgentId agent, const std::string& module,
                                        const std::string& vsf,
                                        const std::string& implementation) {
  proto::ControlDelegation delegation;
  delegation.module = module;
  delegation.vsf = vsf;
  delegation.implementation = implementation;
  // Stand-in payload for the compiled shared library the paper ships; gives
  // the delegation message a realistic (non-trivial) wire size.
  delegation.blob.assign(256, 0xc0);
  return send_to(agent, delegation);
}

util::Status ShardCore::send_policy(AgentId agent, const std::string& yaml) {
  proto::PolicyReconfiguration policy;
  policy.yaml = yaml;
  // send_to stamps the envelope with next_xid_; record the policy under
  // that xid so the agent's echoed verdict can resolve it.
  const std::uint32_t xid = next_xid_;
  auto status = send_to(agent, policy);
  if (status.ok()) policies_[agent].pending.emplace(xid, yaml);
  return status;
}

const proto::SignalingAccountant& ShardCore::tx_accounting(AgentId agent) const {
  auto it = links_.find(agent);
  return it == links_.end() ? empty_accounting_ : it->second.tx;
}

const proto::SignalingAccountant& ShardCore::rx_accounting(AgentId agent) const {
  auto it = links_.find(agent);
  return it == links_.end() ? empty_accounting_ : it->second.rx;
}

// ------------------------------------------------------------ observability

const obs::Histogram* ShardCore::control_latency(AgentId agent) const {
  auto it = links_.find(agent);
  return it == links_.end() ? nullptr : it->second.latency.get();
}

ShardStats ShardCore::stats() const {
  ShardStats s = stats_;
  s.ingest_peak_messages = pending_.peak_messages();
  s.ingest_peak_bytes = pending_.peak_bytes();
  s.ingest_budget_overflows = pending_.budget_overflows();
  for (const net::TrafficClass cls : net::kAllTrafficClasses) {
    s.ingest[static_cast<std::size_t>(cls)] = pending_.counters(cls);
  }
  s.overload_transitions = overload_monitor_.transitions();
  s.cycles_run = static_cast<std::uint64_t>(task_manager_.cycles_run());
  s.commands_flushed = task_manager_.commands_flushed();
  s.app_overruns = task_manager_.app_overruns();
  s.updater_overruns = task_manager_.updater_overruns();
  s.inflight_requests = inflight_.size();
  s.resyncs_waiting = resync_queue_.size();
  s.snapshot_version = snapshot_version();
  return s;
}

std::uint64_t ShardStats::ingest_shed() const {
  std::uint64_t total = 0;
  for (const auto& c : ingest) total += c.shed;
  return total;
}

std::uint64_t ShardStats::ingest_coalesced() const {
  std::uint64_t total = 0;
  for (const auto& c : ingest) total += c.coalesced;
  return total;
}

ShardStats& ShardStats::operator+=(const ShardStats& other) {
  for (const auto& f : kShardStatFields) this->*f.field += other.*f.field;
  for (std::size_t i = 0; i < ingest.size(); ++i) {
    for (const auto& f : kIngestClassFields) ingest[i].*f.field += other.ingest[i].*f.field;
  }
  return *this;
}

void ShardCore::collect(obs::Sink& out) const {
  // Every counter, from the one table that declares it.
  const ShardStats s = stats();
  for (const auto& f : kShardStatFields) {
    if (f.name != nullptr) out.value(f.name, {}, static_cast<double>(s.*f.field));
  }
  for (const net::TrafficClass cls : net::kAllTrafficClasses) {
    for (const auto& f : kIngestClassFields) {
      out.value(f.name, {{"class", net::to_string(cls)}},
                static_cast<double>(s.ingest[static_cast<std::size_t>(cls)].*f.field));
    }
  }
  // Values that are not counters: ingest queue depth, overload state,
  // throttle multiplier, the recovery gauge and stage-time means.
  out.value("ingest_depth_messages", {}, static_cast<double>(pending_.size()));
  out.value("ingest_depth_bytes", {}, static_cast<double>(pending_.bytes()));
  out.value("overload_state", {},
            static_cast<double>(static_cast<int>(overload_monitor_.state())));
  out.value("throttle_multiplier", {}, static_cast<double>(throttle_multiplier_));
  out.value("recovering", {}, recovering_ ? 1.0 : 0.0);
  out.value("idle_fraction", {}, task_manager_.mean_idle_fraction());
  const CycleStages& stages = task_manager_.stages();
  out.value("snapshot_publish_us_mean", {}, stages.publish.mean());
  out.value("cycle_updater_us_mean", {}, stages.updater.mean());
  out.value("cycle_updater_us_max", {}, stages.updater.max());
  out.value("cycle_event_us_mean", {}, stages.event.mean());
  out.value("cycle_apps_us_mean", {}, stages.apps.mean());
  out.value("cycle_apps_us_max", {}, stages.apps.max());
  out.value("cycle_flush_us_mean", {}, stages.flush.mean());
  out.value("cycle_flush_us_max", {}, stages.flush.max());
  out.histogram("resync_duration_us", {}, resync_duration_);
  if (config_.shard < 0) collect_process_wide(out);
  for (const auto& stat : task_manager_.app_stats()) {
    out.value("app_runs", {{"app", stat.name}}, static_cast<double>(stat.runs));
    out.value("app_wall_us_mean", {{"app", stat.name}}, stat.mean_wall_us);
    out.value("app_wall_us_max", {{"app", stat.name}}, stat.max_wall_us);
    out.value("app_overruns", {{"app", stat.name}}, static_cast<double>(stat.overruns));
  }
  // Per-agent series, for exactly the agents this core holds: a migrated
  // agent's series leave with it.
  for (const auto& [id, link] : links_) {
    const std::string agent = std::to_string(id);
    for (const proto::MessageCategory category : proto::kAllCategories) {
      const char* cat = proto::to_string(category);
      out.value("signaling_tx_bytes", {{"agent", agent}, {"category", cat}},
                static_cast<double>(link.tx.bytes(category)));
      out.value("signaling_tx_messages", {{"agent", agent}, {"category", cat}},
                static_cast<double>(link.tx.messages(category)));
      out.value("signaling_rx_bytes", {{"agent", agent}, {"category", cat}},
                static_cast<double>(link.rx.bytes(category)));
      out.value("signaling_rx_messages", {{"agent", agent}, {"category", cat}},
                static_cast<double>(link.rx.messages(category)));
    }
    if (link.latency != nullptr) {
      out.histogram("control_latency_us", {{"agent", agent}}, *link.latency);
    }
  }
}

void ShardCore::collect_process_wide(obs::Sink& out) {
  // Fields the decoder recognised but had to drop rather than store, e.g.
  // trailing BSR entries beyond the fixed LCG count (docs/wire_fastpath.md).
  out.value("proto_decode_anomalies", {},
            static_cast<double>(
                proto::decode_anomalies().bsr_overflow.load(std::memory_order_relaxed)));
}

}  // namespace flexran::ctrl
