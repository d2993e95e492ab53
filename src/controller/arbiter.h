// Conflict resolution for controller applications (paper Sec. 7.3 lists
// this as the first open issue: "such a mechanism should prohibit the
// deployment of multiple applications that may simultaneously issue
// scheduling decisions for the same resource blocks").
//
// The arbiter tracks, per (agent, target subframe), which PRBs have been
// claimed by already-accepted downlink MAC configs. A decision that
// overlaps existing claims -- or overlaps itself -- is rejected before it
// reaches the wire. Because the Task Manager runs applications in priority
// order (a lower priority tier starts only after the tier above finished),
// time-critical apps naturally claim resources first and lower priority
// apps get the conflict error.
//
// Thread safety: claims happen at command-enqueue time, which with a
// parallel application slot means concurrently from worker threads (apps
// of one priority tier) and from the coordinator (the master's direct send
// path, the per-cycle prune). All state is guarded by an internal mutex.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "controller/rib.h"
#include "lte/allocation.h"
#include "proto/messages.h"
#include "util/result.h"

namespace flexran::ctrl {

class Rib;

class ConflictArbiter {
 public:
  /// Validates `config` against existing claims and, when clean, records
  /// its PRBs. Errors: conflict (overlap with an earlier claim or within
  /// the message itself). Thread-safe; claim-or-reject is atomic.
  util::Status claim_dl(AgentId agent, const proto::DlMacConfig& config);

  /// Drops every claim for a subframe its agent has already passed (per
  /// `rib`'s `last_subframe`) and every claim of an agent `rib` no longer
  /// holds (removed, or re-homed to another shard). Visits only the agents
  /// that hold claims: with none, it costs one lock and no RIB lookup.
  void prune(const Rib& rib);
  /// Drops every claim (a master restart forgets them all).
  void clear();

  std::uint64_t conflicts_detected() const;
  std::size_t open_claims() const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<AgentId, std::int64_t>, lte::RbAllocation> claims_;
  std::uint64_t conflicts_ = 0;
};

}  // namespace flexran::ctrl
