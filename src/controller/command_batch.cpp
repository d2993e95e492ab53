#include "controller/command_batch.h"

#include <utility>

namespace flexran::ctrl {

void BatchingNorthbound::pin(std::shared_ptr<const RibSnapshot> snapshot, sim::TimeUs now) {
  batching_ = true;
  pinned_ = std::move(snapshot);
  pinned_now_ = now;
}

std::size_t BatchingNorthbound::flush() {
  batching_ = false;
  pinned_.reset();
  std::size_t sent = 0;
  for (auto& command : queue_) {
    if (command.send().ok()) ++sent;
  }
  queue_.clear();
  return sent;
}

void BatchingNorthbound::discard() {
  batching_ = false;
  pinned_.reset();
  queue_.clear();
}

std::shared_ptr<const RibSnapshot> BatchingNorthbound::rib_snapshot() const {
  if (batching_) return pinned_;
  return direct_.rib_snapshot();
}

sim::TimeUs BatchingNorthbound::now() const {
  if (batching_) return pinned_now_;
  return direct_.now();
}

std::int64_t BatchingNorthbound::agent_subframe(AgentId agent) const {
  if (batching_) {
    const AgentNode* node = pinned_->find_agent(agent);
    return node == nullptr ? -1 : node->last_subframe;
  }
  return direct_.agent_subframe(agent);
}

util::Status BatchingNorthbound::enqueue(AgentId agent, proto::MessageType type,
                                         std::function<util::Status()> send) {
  if (!batching_) return send();
  if (pinned_->find_agent(agent) == nullptr) {
    return util::Error::not_found("unknown agent");
  }
  queue_.push_back(QueuedCommand{agent, type, std::move(send)});
  return util::Status();
}

util::Status BatchingNorthbound::send_dl_mac_config(AgentId agent,
                                                    const proto::DlMacConfig& config) {
  if (!batching_) return direct_.send_dl_mac_config(agent, config);
  if (pinned_->find_agent(agent) == nullptr) {
    return util::Error::not_found("unknown agent");
  }
  // Arbitrate now so the caller sees conflicts synchronously; the flushed
  // send must then bypass the downstream claim (it already happened here).
  if (hooks_.claim_dl) {
    auto claimed = hooks_.claim_dl(agent, config);
    if (!claimed.ok()) return claimed;
    queue_.push_back(QueuedCommand{agent, proto::MessageType::dl_mac_config,
                                   [this, agent, config] {
                                     return hooks_.send_dl_raw(agent, config);
                                   }});
    return util::Status();
  }
  queue_.push_back(QueuedCommand{agent, proto::MessageType::dl_mac_config,
                                 [this, agent, config] {
                                   return direct_.send_dl_mac_config(agent, config);
                                 }});
  return util::Status();
}

util::Status BatchingNorthbound::send_ul_mac_config(AgentId agent,
                                                    const proto::UlMacConfig& config) {
  return enqueue(agent, proto::MessageType::ul_mac_config,
                 [this, agent, config] { return direct_.send_ul_mac_config(agent, config); });
}

util::Status BatchingNorthbound::send_handover(AgentId agent,
                                               const proto::HandoverCommand& command) {
  return enqueue(agent, proto::MessageType::handover_command,
                 [this, agent, command] { return direct_.send_handover(agent, command); });
}

util::Status BatchingNorthbound::send_abs_config(AgentId agent, const proto::AbsConfig& config) {
  return enqueue(agent, proto::MessageType::abs_config,
                 [this, agent, config] { return direct_.send_abs_config(agent, config); });
}

util::Status BatchingNorthbound::send_carrier_restriction(AgentId agent,
                                                          const proto::CarrierRestriction& config) {
  return enqueue(agent, proto::MessageType::carrier_restriction, [this, agent, config] {
    return direct_.send_carrier_restriction(agent, config);
  });
}

util::Status BatchingNorthbound::send_drx_config(AgentId agent, const proto::DrxConfig& config) {
  return enqueue(agent, proto::MessageType::drx_config,
                 [this, agent, config] { return direct_.send_drx_config(agent, config); });
}

util::Status BatchingNorthbound::send_scell_command(AgentId agent,
                                                    const proto::ScellCommand& command) {
  return enqueue(agent, proto::MessageType::scell_command,
                 [this, agent, command] { return direct_.send_scell_command(agent, command); });
}

util::Status BatchingNorthbound::request_stats(AgentId agent, const proto::StatsRequest& request) {
  return enqueue(agent, proto::MessageType::stats_request,
                 [this, agent, request] { return direct_.request_stats(agent, request); });
}

util::Status BatchingNorthbound::subscribe_events(AgentId agent,
                                                  std::vector<proto::EventType> events,
                                                  bool enable) {
  return enqueue(agent, proto::MessageType::event_subscription,
                 [this, agent, events = std::move(events), enable]() mutable {
                   return direct_.subscribe_events(agent, std::move(events), enable);
                 });
}

util::Status BatchingNorthbound::push_vsf(AgentId agent, const std::string& module,
                                          const std::string& vsf,
                                          const std::string& implementation) {
  return enqueue(agent, proto::MessageType::control_delegation, [this, agent, module, vsf, implementation] {
    return direct_.push_vsf(agent, module, vsf, implementation);
  });
}

util::Status BatchingNorthbound::send_policy(AgentId agent, const std::string& yaml) {
  return enqueue(agent, proto::MessageType::policy_reconfiguration,
                 [this, agent, yaml] { return direct_.send_policy(agent, yaml); });
}

}  // namespace flexran::ctrl
