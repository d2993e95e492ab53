#include "agent/agent.h"

#include <algorithm>
#include <array>

#include "net/framing.h"
#include "util/logging.h"

namespace flexran::agent {

Agent::Agent(sim::Simulator& sim, stack::EnodebDataPlane& data_plane, AgentConfig config)
    : sim_(sim),
      data_plane_(data_plane),
      config_(std::move(config)),
      api_(data_plane),
      mac_(cache_),
      rrc_(cache_),
      guard_(cache_),
      reports_(api_) {
  register_builtin_vsfs();
  guard_.set_failure_hook([this](const VsfFailureRecord& record) { on_vsf_failure(record); });

  // Pre-load the built-in behaviors into the cache, as if the operator had
  // provisioned them at deployment time, plus the remote stub wired to this
  // agent's decision queue.
  (void)cache_.store(MacControlModule::kName, MacControlModule::kDlSchedulerSlot, "local_rr");
  (void)cache_.store(MacControlModule::kName, MacControlModule::kDlSchedulerSlot, "local_pf");
  (void)cache_.store(MacControlModule::kName, MacControlModule::kDlSchedulerSlot, "local_ca_rr");
  (void)cache_.store(MacControlModule::kName, MacControlModule::kUlSchedulerSlot, "local_rr");
  (void)cache_.store(MacControlModule::kName, MacControlModule::kUlSchedulerSlot, "remote");
  (void)cache_.store(RrcControlModule::kName, RrcControlModule::kHandoverPolicySlot, "a3");
  (void)cache_.store(MacControlModule::kName, MacControlModule::kDlSchedulerSlot, "remote");

  auto dl_status = mac_.set_behavior(MacControlModule::kDlSchedulerSlot, config_.dl_scheduler);
  if (!dl_status.ok()) {
    FLEXRAN_LOG(error, "agent") << "dl scheduler init: " << dl_status.error().message;
  }
  auto ul_status = mac_.set_behavior(MacControlModule::kUlSchedulerSlot, config_.ul_scheduler);
  if (!ul_status.ok()) {
    FLEXRAN_LOG(error, "agent") << "ul scheduler init: " << ul_status.error().message;
  }

  data_plane_.set_listener(this);
}

Agent::~Agent() { data_plane_.set_listener(nullptr); }

void Agent::connect(net::Transport& transport) {
  transport_ = &transport;
  ++session_epoch_;
  master_heard_this_session_ = false;
  transport_->set_receive_callback(
      [this](std::span<const std::uint8_t> data) { handle_message(data); });
  transport_->set_disconnect_callback(
      [this](util::Error error) { on_transport_disconnect(error); });
  send_hello();
}

void Agent::send_hello() {
  proto::Hello hello;
  hello.enb_id = config_.enb_id;
  hello.name = config_.name;
  hello.n_cells = 1;
  hello.capabilities = {"mac", "rrc", "delegation"};
  hello.epoch = session_epoch_;
  last_hello_subframe_ = api_.current_subframe();
  send_message(hello);
}

void Agent::disconnect() {
  if (transport_ == nullptr) return;
  transport_->set_receive_callback(nullptr);
  transport_->set_disconnect_callback(nullptr);
  transport_ = nullptr;
  // Session-scoped state dies with the session; the master's re-sync on the
  // next hello reinstalls subscriptions and stats registrations, and queued
  // schedule-ahead decisions from the old session must not be applied.
  for (auto& slot : decision_queue_) slot.queued = false;
  subscribed_events_.clear();
  reports_.clear();
}

void Agent::on_transport_disconnect(const util::Error& error) {
  FLEXRAN_LOG(warn, "agent") << "control channel lost: " << error.message;
  disconnect();
  schedule_reconnect(kReconnectInitialBackoff);
}

void Agent::schedule_reconnect(sim::TimeUs delay) {
  if (reconnect_pending_ || connected()) return;
  reconnect_pending_ = true;
  sim_.after(delay, [this] { try_reconnect(kReconnectInitialBackoff); });
}

void Agent::try_reconnect(sim::TimeUs next_backoff) {
  reconnect_pending_ = false;
  if (connected()) return;
  ++reconnect_attempts_;
  if (reconnect_attempt_times_.size() < 64) reconnect_attempt_times_.push_back(sim_.now());
  net::Transport* transport = reconnect_provider_ ? reconnect_provider_() : nullptr;
  if (transport != nullptr) {
    connect(*transport);
    return;
  }
  const auto backoff = std::min(next_backoff, kReconnectMaxBackoff);
  reconnect_pending_ = true;
  // Jitter decorrelates the retry herd: after a master outage every agent
  // observed the loss in the same TTI, and un-jittered doubling would keep
  // them retrying in lockstep forever.
  sim_.after(jittered_backoff(backoff), [this, backoff] { try_reconnect(backoff * 2); });
}

sim::TimeUs Agent::jittered_backoff(sim::TimeUs backoff) const {
  // Stable identity hash (FNV-1a over the name, seeded with the enb id,
  // finished with a splitmix-style avalanche): the same agent always gets
  // the same spread, two agents almost surely get different ones --
  // deterministic, so chaos runs stay replayable.
  std::uint64_t h = 0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(config_.enb_id);
  for (const char c : config_.name) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  const double fraction = static_cast<double>(h % 4096) / 4096.0;  // [0, 1)
  const double scale = 1.0 + kReconnectJitter * fraction;
  return static_cast<sim::TimeUs>(static_cast<double>(backoff) * scale);
}

template <typename M>
void Agent::send_message(const M& message, std::uint32_t xid) {
  if (transport_ == nullptr) return;
  if (xid == 0) xid = next_xid_++;
  proto::Envelope header;
  header.xid = xid;
  header.epoch = session_epoch_;
  if (pending_ts_echo_us_ != 0) {
    // Echo the latest master timestamp exactly once (the next outgoing
    // message closes the master's end-to-end latency measurement).
    header.ts_echo_us = pending_ts_echo_us_;
    pending_ts_echo_us_ = 0;
  }
  // Reused per-link scratch encoder: body and envelope are written in one
  // pass (length backpatching), so a steady-state send allocates nothing.
  send_enc_.clear();
  proto::encode_envelope(send_enc_, header, message);
  const auto wire = send_enc_.bytes();
  tx_accounting_.record(proto::categorize(message), wire.size() + net::kFrameHeaderBytes);
  auto status = transport_->send(proto::traffic_class(message), wire);
  if (!status.ok()) {
    FLEXRAN_LOG(warn, "agent") << "send failed: " << status.error().message;
  }
}

// ------------------------------------------------------------- TTI driving

std::size_t Agent::queued_decisions() const {
  return static_cast<std::size_t>(std::count_if(
      decision_queue_.begin(), decision_queue_.end(),
      [](const QueuedDecision& slot) { return slot.queued; }));
}

lte::SchedulingDecision& Agent::queue_slot(std::int64_t subframe) {
  QueuedDecision* free_slot = nullptr;
  for (auto& slot : decision_queue_) {
    if (slot.queued && slot.decision.subframe == subframe) return slot.decision;
    if (!slot.queued && free_slot == nullptr) free_slot = &slot;
  }
  if (free_slot == nullptr) free_slot = &decision_queue_.emplace_back();
  free_slot->queued = true;
  lte::SchedulingDecision& decision = free_slot->decision;
  decision.subframe = subframe;
  decision.dl.clear();
  decision.ul.clear();
  return decision;
}

void Agent::on_subframe_start(std::int64_t subframe) {
  // Delegation resilience: under pure remote control, a silent master means
  // nothing gets scheduled at all; after the configured outage the agent
  // re-links the fallback VSF and keeps serving UEs autonomously.
  if (config_.remote_fallback_ttis > 0 && mac_.dl_scheduler() != nullptr &&
      mac_.dl_scheduler()->remote() &&
      subframe - last_master_contact_subframe_ > config_.remote_fallback_ttis) {
    auto status =
        mac_.set_behavior(MacControlModule::kDlSchedulerSlot, config_.fallback_scheduler);
    if (status.ok()) {
      ++fallback_activations_;
      fallback_active_ = true;
      FLEXRAN_LOG(warn, "agent") << "master silent for "
                                 << subframe - last_master_contact_subframe_
                                 << " TTIs; falling back to " << config_.fallback_scheduler;
    }
  }

  // A hello lost to a partition that raced the connect leaves the master
  // unaware of the new session; re-offer it until the master answers. A
  // retry-after hold (master re-sync admission gate) pauses the loop.
  if (transport_ != nullptr && !master_heard_this_session_ &&
      sim_.now() >= hello_hold_until_ && subframe - last_hello_subframe_ >= kHelloRetryTtis) {
    ++hello_retries_;
    send_hello();
  }

  // Drop decisions whose deadline passed before they could be applied.
  for (auto& slot : decision_queue_) {
    if (slot.queued && slot.decision.subframe < subframe) {
      slot.queued = false;
      ++missed_deadline_decisions_;
    }
  }

  // Run the active scheduling VSFs through the CMI, guarded: delegated
  // code that throws, overruns its budget or emits an invalid allocation
  // never reaches the MAC -- the guard substitutes the built-in local
  // default within this same TTI (docs/delegation_safety.md).
  lte::SchedulingDecision& combined = combined_;
  combined.cell_id = api_.cell_id();
  combined.subframe = subframe;
  {
    const auto decision = guard_.run_dl(mac_, config_.fallback_scheduler, api_, subframe);
    combined.dl.assign(decision.dl.begin(), decision.dl.end());
  }
  {
    const auto decision = guard_.run_ul(mac_, kUlFallbackScheduler, api_, subframe);
    combined.ul.assign(decision.ul.begin(), decision.ul.end());
  }
  // Merge any master-pushed decision targeting this subframe. When the
  // active VSF is the remote stub this IS the schedule; under delegated
  // control it coexists with local decisions (e.g. the master scheduling
  // the almost-blank subframes of the optimized-eICIC use case while the
  // local VSF handles normal subframes). Overlapping grants are rejected by
  // the data plane, local decisions taking precedence.
  for (auto& slot : decision_queue_) {
    if (!slot.queued || slot.decision.subframe != subframe) continue;
    combined.dl.insert(combined.dl.end(), slot.decision.dl.begin(), slot.decision.dl.end());
    combined.ul.insert(combined.ul.end(), slot.decision.ul.begin(), slot.decision.ul.end());
    slot.queued = false;
    ++remote_decisions_applied_;
    break;
  }
  if (!combined.empty()) {
    auto status = api_.apply_scheduling_decision(combined);
    if (!status.ok()) {
      FLEXRAN_LOG(debug, "agent") << "decision rejected: " << status.error().message;
    }
  }

  // RRC: evaluate the handover policy (guarded like the MAC slots).
  if (auto handover = guard_.run_handover(rrc_, kHandoverFallbackPolicy, api_, subframe);
      handover.has_value()) {
    execute_handover(handover->rnti, handover->target_cell);
  }

  // Master-agent sync.
  if (subscribed_events_.contains(proto::EventType::subframe_tick)) {
    proto::EventNotification tick;
    tick.event = proto::EventType::subframe_tick;
    tick.subframe = subframe;
    tick.cell_id = api_.cell_id();
    send_message(tick);
  }

  // Statistics reports due this TTI. A disconnect clears the registrations
  // that own the replies, so stop at one.
  for (const proto::StatsReply* reply : reports_.collect(subframe)) {
    if (!connected()) break;
    send_message(*reply);
  }
}

// ------------------------------------------------------------------ events

void Agent::on_rach(lte::Rnti rnti, std::int64_t subframe) {
  if (!subscribed_events_.contains(proto::EventType::rach_attempt)) return;
  proto::EventNotification event;
  event.event = proto::EventType::rach_attempt;
  event.subframe = subframe;
  event.rnti = rnti;
  event.cell_id = api_.cell_id();
  send_message(event);
}

void Agent::on_ue_attached(lte::Rnti rnti, std::int64_t subframe) {
  if (!subscribed_events_.contains(proto::EventType::ue_attach)) return;
  proto::EventNotification event;
  event.event = proto::EventType::ue_attach;
  event.subframe = subframe;
  event.rnti = rnti;
  event.cell_id = api_.cell_id();
  send_message(event);
}

void Agent::on_ue_detached(lte::Rnti rnti, std::int64_t subframe) {
  if (!subscribed_events_.contains(proto::EventType::ue_detach)) return;
  proto::EventNotification event;
  event.event = proto::EventType::ue_detach;
  event.subframe = subframe;
  event.rnti = rnti;
  event.cell_id = api_.cell_id();
  send_message(event);
}

void Agent::on_scheduling_request(lte::Rnti rnti, std::int64_t subframe) {
  if (!subscribed_events_.contains(proto::EventType::scheduling_request)) return;
  proto::EventNotification event;
  event.event = proto::EventType::scheduling_request;
  event.subframe = subframe;
  event.rnti = rnti;
  event.cell_id = api_.cell_id();
  send_message(event);
}

// ---------------------------------------------------------------- dispatch

void Agent::handle_message(std::span<const std::uint8_t> data) {
  ++messages_received_;
  // The span is only valid for this callback; decode_into copies what we
  // keep (the body) into the reused per-link envelope.
  auto decoded = proto::Envelope::decode_into(data, rx_envelope_);
  if (!decoded.ok()) {
    FLEXRAN_LOG(error, "agent") << "bad envelope: " << decoded.error().message;
    return;
  }
  const proto::Envelope& envelope = rx_envelope_;
  // Mirror of the master's per-link rx accounting (same frame-header-bytes
  // convention), so both ends of the Fig. 7 breakdown reconcile. Recorded
  // before epoch fencing, like the master records before its queue.
  rx_accounting_.record(proto::classify(envelope.type, envelope.body).category,
                        data.size() + net::kFrameHeaderBytes);
  if (envelope.ts_us != 0) pending_ts_echo_us_ = envelope.ts_us;
  // Master incarnation fencing (the mirror image of the session-epoch fence
  // below, docs/fault_tolerance.md "Master restart"): a message from an
  // older incarnation is a straggler from a dead master and must not be
  // applied (nor count as master contact); a higher incarnation means the
  // master restarted and lost this agent's session -- re-offer the hello so
  // the new incarnation runs a full re-sync.
  if (envelope.master_epoch != 0) {
    if (envelope.master_epoch < master_incarnation_) {
      ++fenced_incarnation_messages_;
      return;
    }
    if (envelope.master_epoch > master_incarnation_) {
      const bool restarted = master_incarnation_ != 0;
      master_incarnation_ = envelope.master_epoch;
      if (restarted) {
        ++master_restarts_seen_;
        FLEXRAN_LOG(warn, "agent") << "master restarted (incarnation "
                                   << master_incarnation_ << "); offering re-sync";
        if (envelope.retry_after_ms == 0) {
          send_hello();
        } else {
          // The restarted master's admission gate deferred us: hold the
          // hello for the hinted (jittered) backoff, then re-offer it if
          // this incarnation still has not re-synced us by other means.
          const sim::TimeUs hold = jittered_backoff(
              sim::from_ms(static_cast<double>(envelope.retry_after_ms)));
          sim_.after(hold, [this, incarnation = master_incarnation_] {
            if (connected() && master_incarnation_ == incarnation) send_hello();
          });
        }
      }
    }
  }
  if (envelope.retry_after_ms != 0) {
    // Re-sync deferral hint: pause the hello retry loop for the hinted
    // backoff (jittered, so the deferred cohort does not retry in lockstep
    // either). The master drives the deferred re-sync itself.
    hello_hold_until_ = sim_.now() + jittered_backoff(sim::from_ms(
                                         static_cast<double>(envelope.retry_after_ms)));
  }
  // Fence messages addressed to an older session: a command the master sent
  // before it learned of this agent's restart must not be applied (and does
  // not count as master contact).
  if (envelope.epoch != 0 && envelope.epoch != session_epoch_) {
    ++fenced_messages_;
    return;
  }
  last_master_contact_subframe_ = api_.current_subframe();
  master_heard_this_session_ = true;
  // Overload feedback: every master envelope carries the current throttle
  // hint (0 while the master is healthy). Tracking it here rather than via
  // a dedicated message means recovery needs no extra signaling -- the
  // first un-stamped envelope restores full-rate reporting.
  reports_.set_throttle(std::max<std::uint32_t>(1, envelope.throttle_hint));
  // Two-way fallback: master messages resumed, so hand the DL scheduler
  // back to remote control before processing the message.
  if (fallback_active_) {
    fallback_active_ = false;
    if (config_.dl_scheduler == "remote" &&
        mac_.active_implementation(MacControlModule::kDlSchedulerSlot) ==
            config_.fallback_scheduler) {
      auto status = mac_.set_behavior(MacControlModule::kDlSchedulerSlot, "remote");
      if (status.ok()) {
        ++fallback_recoveries_;
        FLEXRAN_LOG(info, "agent") << "master reachable again; resuming remote DL control";
      }
    }
  }
  handle_envelope(envelope);
}

void Agent::handle_envelope(const proto::Envelope& envelope) {
  using proto::MessageType;
  switch (envelope.type) {
    case MessageType::echo_request: {
      auto request = proto::unpack<proto::EchoRequest>(envelope);
      if (!request.ok()) break;
      proto::EchoReply reply;
      reply.subframe = api_.current_subframe();
      reply.echoed_timestamp_us = request->timestamp_us;
      send_message(reply, envelope.xid);
      break;
    }
    case MessageType::enb_config_request: {
      proto::EnbConfigReply reply;
      reply.enb_id = config_.enb_id;
      reply.cells.push_back(proto::CellConfigMsg::from(api_.enb_config().cells[0]));
      send_message(reply, envelope.xid);
      break;
    }
    case MessageType::ue_config_request: {
      proto::UeConfigReply reply;
      for (const auto& ue : api_.ue_configs()) {
        reply.ues.push_back(proto::UeConfigMsg::from(ue));
      }
      send_message(reply, envelope.xid);
      break;
    }
    case MessageType::lc_config_request: {
      proto::LcConfigReply reply;
      reply.channels = api_.lc_configs();
      send_message(reply, envelope.xid);
      break;
    }
    case MessageType::stats_request: {
      auto request = proto::unpack<proto::StatsRequest>(envelope);
      if (request.ok()) reports_.register_request(*request, api_.current_subframe());
      break;
    }
    case MessageType::dl_mac_config: {
      proto::DlMacConfig& config = rx_dl_config_;
      if (!proto::DlMacConfig::decode_body_into(envelope.body, config).ok()) break;
      if (config.target_subframe < api_.current_subframe()) {
        ++missed_deadline_decisions_;  // arrived after its deadline
        break;
      }
      // Merge with any queued UL decision for the same subframe.
      auto& slot = queue_slot(config.target_subframe);
      slot.cell_id = config.cell_id;
      slot.dl.assign(config.dcis.begin(), config.dcis.end());
      break;
    }
    case MessageType::ul_mac_config: {
      proto::UlMacConfig& config = rx_ul_config_;
      if (!proto::UlMacConfig::decode_body_into(envelope.body, config).ok()) break;
      if (config.target_subframe < api_.current_subframe()) {
        ++missed_deadline_decisions_;
        break;
      }
      auto& slot = queue_slot(config.target_subframe);
      slot.cell_id = config.cell_id;
      slot.ul.assign(config.dcis.begin(), config.dcis.end());
      break;
    }
    case MessageType::handover_command: {
      auto command = proto::unpack<proto::HandoverCommand>(envelope);
      if (command.ok()) execute_handover(command->rnti, command->target_cell);
      break;
    }
    case MessageType::abs_config: {
      auto config = proto::unpack<proto::AbsConfig>(envelope);
      if (config.ok()) api_.configure_abs(config->pattern, config->mute_during_abs);
      break;
    }
    case MessageType::carrier_restriction: {
      auto restriction = proto::unpack<proto::CarrierRestriction>(envelope);
      if (restriction.ok()) api_.restrict_dl_prbs(restriction->max_dl_prbs);
      break;
    }
    case MessageType::drx_config: {
      auto drx = proto::unpack<proto::DrxConfig>(envelope);
      if (drx.ok()) {
        (void)api_.configure_drx(drx->rnti, drx->cycle_ttis, drx->on_duration_ttis);
      }
      break;
    }
    case MessageType::scell_command: {
      auto command = proto::unpack<proto::ScellCommand>(envelope);
      if (command.ok()) (void)api_.set_scell_active(command->rnti, command->activate);
      break;
    }
    case MessageType::event_subscription: {
      auto subscription = proto::unpack<proto::EventSubscription>(envelope);
      if (!subscription.ok()) break;
      for (const auto event : subscription->events) {
        if (subscription->enable) {
          subscribed_events_.insert(event);
        } else {
          subscribed_events_.erase(event);
        }
      }
      break;
    }
    case MessageType::control_delegation: {
      auto delegation = proto::unpack<proto::ControlDelegation>(envelope);
      if (!delegation.ok()) break;
      const bool was_quarantined =
          cache_.is_quarantined(delegation->module, delegation->vsf, delegation->implementation);
      auto status = cache_.store(delegation->module, delegation->vsf, delegation->implementation);
      if (!status.ok()) {
        FLEXRAN_LOG(error, "agent") << "VSF updation failed: " << status.error().message;
        break;
      }
      if (was_quarantined) {
        // A fresh updation of a quarantined implementation re-instantiated
        // it; re-link any slot still naming it so no stale pointer remains.
        for (ControlModule* module :
             {static_cast<ControlModule*>(&mac_), static_cast<ControlModule*>(&rrc_)}) {
          if (module->name() == delegation->module &&
              module->active_implementation(delegation->vsf) == delegation->implementation) {
            (void)module->set_behavior(delegation->vsf, delegation->implementation);
          }
        }
      }
      break;
    }
    case MessageType::policy_reconfiguration: {
      auto policy = proto::unpack<proto::PolicyReconfiguration>(envelope);
      if (!policy.ok()) break;
      auto status = apply_policy(policy->yaml);
      // Report the verdict to the master, echoing the request xid so it can
      // match the policy it sent (last-known-good tracking + rollback).
      proto::EventNotification verdict;
      verdict.subframe = api_.current_subframe();
      verdict.cell_id = api_.cell_id();
      if (status.ok()) {
        ++policies_applied_;
        verdict.event = proto::EventType::policy_applied;
      } else {
        ++policies_rejected_;
        verdict.event = proto::EventType::policy_rejected;
        verdict.detail = status.error().message;
        FLEXRAN_LOG(error, "agent") << "policy reconfiguration rejected: "
                                    << status.error().message;
      }
      send_message(verdict, envelope.xid);
      break;
    }
    default:
      FLEXRAN_LOG(warn, "agent") << "unexpected message type "
                                 << proto::to_string(envelope.type);
      break;
  }
}

void Agent::on_vsf_failure(const VsfFailureRecord& record) {
  FLEXRAN_LOG(warn, "agent") << "VSF " << record.module << "/" << record.slot << "/"
                             << record.implementation << " "
                             << proto::to_string(record.kind) << " ("
                             << record.consecutive_failures << " consecutive): "
                             << record.detail
                             << (record.quarantined ? " -- QUARANTINED" : "");
  // Triggered events are sent unconditionally (not subscription-gated):
  // a misbehaving delegated VSF is exactly the situation in which the
  // master must hear from the agent without having asked first.
  proto::EventNotification event;
  event.event = record.quarantined ? proto::EventType::vsf_quarantined
                                   : proto::EventType::vsf_failure;
  event.subframe = record.subframe;
  event.cell_id = api_.cell_id();
  event.module = record.module;
  event.vsf = record.slot;
  event.implementation = record.implementation;
  event.failure_kind = record.kind;
  event.failure_count = record.consecutive_failures;
  event.detail = record.detail;
  send_message(event);
}

void Agent::execute_handover(lte::Rnti rnti, lte::CellId target) {
  auto context = api_.trigger_handover(rnti);
  if (!context.ok()) {
    FLEXRAN_LOG(warn, "agent") << "handover of rnti " << rnti
                               << " failed: " << context.error().message;
    return;
  }
  ++handovers_executed_;
  if (handover_sink_) handover_sink_(std::move(*context), target, rnti);
}

// ------------------------------------------------------------------ policy

util::Status Agent::apply_policy(const std::string& yaml) {
  const std::array<ControlModule*, 2> modules = {&mac_, &rrc_};
  return apply_policy_yaml(yaml, modules);
}

// Explicit instantiations keep send_message out of the header.
template void Agent::send_message(const proto::Hello&, std::uint32_t);
template void Agent::send_message(const proto::EchoReply&, std::uint32_t);
template void Agent::send_message(const proto::EnbConfigReply&, std::uint32_t);
template void Agent::send_message(const proto::UeConfigReply&, std::uint32_t);
template void Agent::send_message(const proto::LcConfigReply&, std::uint32_t);
template void Agent::send_message(const proto::StatsReply&, std::uint32_t);
template void Agent::send_message(const proto::EventNotification&, std::uint32_t);

}  // namespace flexran::agent
