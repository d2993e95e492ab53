// The batched, thread-safe command path. Each registered application gets
// its own BatchingNorthbound proxy. During the application slot the proxy
// is "pinned": reads are served from the cycle's immutable RibSnapshot and
// the pinned simulation time, and control commands are captured into a
// per-app queue instead of touching transports from the worker thread.
// The Task Manager flushes the queues on the coordinator thread in
// deterministic (priority tier, registration, enqueue) order, which also
// makes per-agent message coalescing possible downstream.
//
// DL MAC configs are the one command with synchronous feedback semantics:
// conflict arbitration happens at enqueue time (through the claim_dl
// hook), so a lower-priority app still observes the rejection immediately,
// exactly as on the direct path. Flushed DL configs then bypass the
// downstream claim via send_dl_raw.
//
// Outside a pinned slot (on_start, on_event, direct master use) the proxy
// forwards straight to the downstream api.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "controller/app.h"

namespace flexran::ctrl {

/// One control command captured during the application slot.
struct QueuedCommand {
  AgentId agent = 0;
  proto::MessageType type = proto::MessageType::hello;
  std::function<util::Status()> send;
};

class BatchingNorthbound final : public NorthboundApi {
 public:
  struct Hooks {
    /// Claims DL PRBs at enqueue time (thread-safe). Null = no arbitration
    /// at enqueue; the flush path's downstream send arbitrates instead.
    std::function<util::Status(AgentId, const proto::DlMacConfig&)> claim_dl;
    /// Sends a DL config without re-claiming (the claim already happened
    /// at enqueue). Required whenever claim_dl is set.
    std::function<util::Status(AgentId, const proto::DlMacConfig&)> send_dl_raw;
  };

  explicit BatchingNorthbound(NorthboundApi& direct, Hooks hooks = {})
      : direct_(direct), hooks_(std::move(hooks)) {}

  /// Enters batch mode for one cycle: reads pin to `snapshot` and `now`,
  /// commands enqueue. Coordinator thread, before the app is dispatched.
  void pin(std::shared_ptr<const RibSnapshot> snapshot, sim::TimeUs now);
  /// Replays the queue into the downstream api in enqueue order and leaves
  /// batch mode. Coordinator thread only. Returns commands sent.
  std::size_t flush();
  /// Drops the queue and leaves batch mode (teardown path).
  void discard();

  std::size_t queued() const { return queue_.size(); }

  // ---- NorthboundApi ---------------------------------------------------------
  std::shared_ptr<const RibSnapshot> rib_snapshot() const override;
  sim::TimeUs now() const override;
  std::int64_t agent_subframe(AgentId agent) const override;
  util::Status send_dl_mac_config(AgentId agent, const proto::DlMacConfig& config) override;
  util::Status send_ul_mac_config(AgentId agent, const proto::UlMacConfig& config) override;
  util::Status send_handover(AgentId agent, const proto::HandoverCommand& command) override;
  util::Status send_abs_config(AgentId agent, const proto::AbsConfig& config) override;
  util::Status send_carrier_restriction(AgentId agent,
                                        const proto::CarrierRestriction& config) override;
  util::Status send_drx_config(AgentId agent, const proto::DrxConfig& config) override;
  util::Status send_scell_command(AgentId agent, const proto::ScellCommand& command) override;
  util::Status request_stats(AgentId agent, const proto::StatsRequest& request) override;
  util::Status subscribe_events(AgentId agent, std::vector<proto::EventType> events,
                                bool enable) override;
  util::Status push_vsf(AgentId agent, const std::string& module, const std::string& vsf,
                        const std::string& implementation) override;
  util::Status send_policy(AgentId agent, const std::string& yaml) override;

 private:
  /// Enqueues `send` for `agent` when batching (validating the agent
  /// against the pinned snapshot), otherwise runs it immediately.
  util::Status enqueue(AgentId agent, proto::MessageType type, std::function<util::Status()> send);

  NorthboundApi& direct_;
  Hooks hooks_;
  bool batching_ = false;
  std::shared_ptr<const RibSnapshot> pinned_;
  sim::TimeUs pinned_now_ = 0;
  std::vector<QueuedCommand> queue_;
};

}  // namespace flexran::ctrl
