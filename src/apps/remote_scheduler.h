// Centralized (remote) downlink scheduling application -- the paper's most
// demanding workload: per-TTI scheduling decisions computed at the master
// from RIB state and pushed to agents over the FlexRAN protocol
// (Secs. 5.2.1 and 5.3). Supports schedule-ahead operation: a decision for
// observed subframe x is issued targeting subframe x + n, which must cover
// the control-channel one-way latency for the decision to be applicable.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "controller/app.h"

namespace flexran::apps {

/// Cap on decisions issued per agent per cycle (bounds catch-up bursts after
/// the master stalls).
inline constexpr int kMaxDecisionsPerCycle = 4;

struct RemoteSchedulerConfig {
  /// n: how many subframes ahead of the agent's last reported subframe a
  /// decision targets (Fig. 9 x-axis; >= 1).
  int schedule_ahead_sf = 2;
  /// Agents under this scheduler's control; empty = all connected agents.
  std::vector<ctrl::AgentId> agents;
  /// Also schedule the uplink from reported UL buffer status. The agent's
  /// local UL VSF should then be disabled ("remote" is DL-only as a slot,
  /// so point ul_ue_scheduler at nothing by leaving it unset) or its grants
  /// will race the master's -- the data plane rejects the overlap.
  bool schedule_ul = false;
};

class RemoteSchedulerApp final : public ctrl::App {
 public:
  explicit RemoteSchedulerApp(RemoteSchedulerConfig config = {}) : config_(config) {}

  std::string_view name() const override { return "remote_scheduler"; }
  /// Time critical: runs first in every cycle.
  int priority() const override { return 1; }

  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;
  /// Demotes an agent to local scheduling on vsf_quarantined -- the same
  /// degradation path the latency fallback takes (the agent's local VSF has
  /// control, remote decisions would race it). Re-promotes once the agent
  /// reports a valid policy applied or reconnects with a fresh session.
  void on_event(const ctrl::Event& event, ctrl::NorthboundApi& api) override;

  std::uint64_t decisions_sent() const { return decisions_sent_; }
  /// Agents currently demoted to local scheduling after a VSF quarantine.
  bool is_demoted(ctrl::AgentId agent) const { return demoted_.contains(agent); }
  std::uint64_t demotions() const { return demotions_; }

 private:
  /// Builds one RR decision for `target_subframe` from the agent's RIB
  /// state.
  proto::DlMacConfig build_decision(const ctrl::AgentNode& agent, std::int64_t target_subframe);
  proto::UlMacConfig build_ul_decision(const ctrl::AgentNode& agent,
                                       std::int64_t target_subframe);

  RemoteSchedulerConfig config_;
  std::map<ctrl::AgentId, std::int64_t> last_target_;
  std::map<ctrl::AgentId, std::size_t> rotation_;
  std::set<ctrl::AgentId> demoted_;
  std::uint64_t decisions_sent_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace flexran::apps
