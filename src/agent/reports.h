// Reports & Events Manager (paper Sec. 4.3.1, "eNodeB Report and Event
// Management"): registers the master's asynchronous statistics requests and
// produces the due reports each TTI. Three report types: one-off (single
// reply), periodic (every N TTIs, N from the request), and triggered (only
// when the report contents changed since the last transmission).
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "agent/agent_api.h"
#include "proto/messages.h"

namespace flexran::agent {

class ReportsManager {
 public:
  explicit ReportsManager(AgentApi& api) : api_(&api) {}

  /// Registers (or replaces, by request_id) a statistics request. A request
  /// with flags == 0 cancels the registration.
  void register_request(const proto::StatsRequest& request, std::int64_t current_subframe);
  void cancel_request(std::uint32_t request_id) { registrations_.erase(request_id); }
  /// Drops every registration -- session-scoped state cleared when the
  /// control channel is torn down; the master reinstalls on re-sync.
  void clear() {
    registrations_.clear();
    retired_.clear();
    due_.clear();
  }
  std::size_t active_registrations() const { return registrations_.size(); }

  /// Returns the replies due at `subframe` (runs once per TTI). The
  /// replies belong to their registrations and are rebuilt in place, so
  /// steady-state collection touches no allocator; they stay valid until
  /// the next collect() or clear().
  std::span<const proto::StatsReply* const> collect(std::int64_t subframe);

  /// Overload-throttle multiplier applied to every periodic report period
  /// (docs/overload_protection.md). Carried as a hint in master
  /// Envelopes; 1 = no throttling. Takes effect at each report's NEXT
  /// rescheduling, so it never bursts already-due reports.
  void set_throttle(std::uint32_t multiplier) { throttle_ = std::max(1u, multiplier); }
  std::uint32_t throttle() const { return throttle_; }

  /// What a triggered registration compares to decide whether to fire: a
  /// hash of every value the wire carries for the reply except the
  /// subframe (which always changes), at wire precision. It walks the
  /// StatsReply field tables, so a new row is covered without touching it.
  static std::uint64_t fingerprint(const proto::StatsReply& reply);

 private:
  struct Registration {
    proto::StatsRequest request;
    std::int64_t next_due = 0;
    std::uint64_t last_fingerprint = 0;
    bool fired_once = false;
    /// Warm reply, rebuilt in place; its vectors keep their capacity.
    proto::StatsReply reply;
  };
  using Registrations = std::map<std::uint32_t, Registration>;

  void build_reply(Registration& registration, std::int64_t subframe);
  std::int64_t effective_period(const proto::StatsRequest& request) const;

  AgentApi* api_;
  Registrations registrations_;
  /// The last collect()'s due replies.
  std::vector<const proto::StatsReply*> due_;
  /// One-off registrations fired by the last collect(), detached from the
  /// map but kept alive so their replies can still be sent.
  std::vector<Registrations::node_type> retired_;
  std::uint32_t throttle_ = 1;
};

}  // namespace flexran::agent
