#include "verify/invariants.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "util/logging.h"
#include "util/strings.h"

namespace flexran::verify {

namespace {
constexpr std::size_t kMaxStoredViolations = 64;
constexpr std::size_t kDigestCycles = 32;
}  // namespace

util::Result<Mode> parse_mode(const std::string& name) {
  if (name == "off") return Mode::off;
  if (name == "log") return Mode::log;
  if (name == "trap") return Mode::trap;
  return util::Error::invalid_argument("invariants mode must be off | log | trap, got '" + name +
                                       "'");
}

InvariantMonitor::InvariantMonitor(ctrl::Coordinator& coordinator, Mode mode)
    : coordinator_(&coordinator), mode_(mode) {
  shards_.resize(coordinator.shard_count());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].incarnation = coordinator.shard(i).incarnation();
    shards_[i].stats = coordinator.shard(i).stats();
  }
}

void InvariantMonitor::install() {
  coordinator_->set_post_cycle_hook([this](std::int64_t cycle) { check_cycle(cycle); });
}

void InvariantMonitor::add_quarantine_probe(std::string label,
                                            std::function<std::uint64_t()> probe) {
  quarantine_probes_.push_back({std::move(label), std::move(probe), 0});
}

void InvariantMonitor::check_cycle(std::int64_t cycle) {
  if (mode_ == Mode::off) return;
  ++checks_run_;
  std::vector<ctrl::ShardStats> now;
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    now.push_back(coordinator_->shard(i).stats());
  }
  record_digest(cycle);
  check_ownership(cycle);
  check_monotonicity(cycle, now);
  check_composite(cycle);
  check_shard_counters(cycle, now);
  check_quarantine_probes(cycle);
  for (std::size_t i = 0; i < shards_.size(); ++i) shards_[i].stats = now[i];
}

// I1: every agent is owned by exactly one active shard. The assignment map
// and the shards' live RIBs must agree -- except that an agent assigned to
// a dead shard with NO survivor left is a legitimate orphan (the failover
// window with nowhere to go), not a violation.
void InvariantMonitor::check_ownership(std::int64_t cycle) {
  using ShardHealth = ctrl::Coordinator::ShardHealth;
  const auto assignments = coordinator_->assignments();
  std::map<ctrl::AgentId, std::size_t> assigned(assignments.begin(), assignments.end());

  bool any_alive = false;
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    if (coordinator_->shard_health(i) == ShardHealth::alive) any_alive = true;
  }

  std::map<ctrl::AgentId, std::size_t> owner_by_rib;
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    const auto health = coordinator_->shard_health(i);
    if (health != ShardHealth::alive && health != ShardHealth::draining) continue;
    for (const auto& [id, node] : coordinator_->shard(i).rib().agents()) {
      (void)node;
      auto [it, inserted] = owner_by_rib.emplace(id, i);
      if (!inserted) {
        report("single_ownership", cycle,
               util::format("agent %u present in shard %zu and shard %zu RIBs", id, it->second,
                            i));
      }
      if (!assigned.contains(id)) {
        report("single_ownership", cycle,
               util::format("agent %u in shard %zu RIB but not in the assignment map", id, i));
      }
    }
  }

  for (const auto& [id, shard] : assignments) {
    const auto health = coordinator_->shard_health(shard);
    const bool active = health == ShardHealth::alive || health == ShardHealth::draining;
    if (!active) {
      if (any_alive) {
        report("single_ownership", cycle,
               util::format("agent %u assigned to %s shard %zu while a live shard exists", id,
                            ctrl::to_string(health), shard));
      }
      continue;  // last-shard-down orphan: permitted
    }
    auto it = owner_by_rib.find(id);
    if (it == owner_by_rib.end()) {
      report("single_ownership", cycle,
             util::format("agent %u assigned to shard %zu but absent from its RIB", id, shard));
    } else if (it->second != shard) {
      report("single_ownership", cycle,
             util::format("agent %u assigned to shard %zu but owned by shard %zu's RIB", id,
                          shard, it->second));
    }
  }
}

// I2: shard incarnations and snapshot versions only move forward (both
// survive restart() by design: the incarnation is bumped, the snapshot
// store is retained). Per-agent epochs only move forward within one
// ownership span -- adoption or a master restart legitimately starts a new
// span, so the baseline re-arms when the (shard, restarts) pair moves.
void InvariantMonitor::check_monotonicity(std::int64_t cycle,
                                          const std::vector<ctrl::ShardStats>& now) {
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    const auto& core = coordinator_->shard(i);
    ShardBaseline& base = shards_[i];
    const std::uint32_t incarnation = core.incarnation();
    if (incarnation < base.incarnation) {
      report("incarnation_monotonic", cycle,
             util::format("shard %zu incarnation went %u -> %u", i, base.incarnation,
                          incarnation));
    } else {
      base.incarnation = incarnation;
    }
    if (now[i].snapshot_version < base.stats.snapshot_version) {
      report("version_monotonic", cycle,
             util::format("shard %zu snapshot version went %llu -> %llu", i,
                          static_cast<unsigned long long>(base.stats.snapshot_version),
                          static_cast<unsigned long long>(now[i].snapshot_version)));
    }
  }

  using ShardHealth = ctrl::Coordinator::ShardHealth;
  const auto assignments = coordinator_->assignments();
  for (const auto& [id, shard] : assignments) {
    const auto health = coordinator_->shard_health(shard);
    if (health != ShardHealth::alive && health != ShardHealth::draining) continue;
    const auto& core = coordinator_->shard(shard);
    const ctrl::AgentNode* node = core.rib().find_agent(id);
    if (node == nullptr) continue;  // check_ownership already flagged it
    const std::uint64_t restarts = now[shard].master_restarts;
    auto [it, inserted] = agents_.try_emplace(id, AgentBaseline{shard, restarts, node->epoch});
    if (inserted) continue;
    AgentBaseline& base = it->second;
    if (base.shard != shard || base.shard_restarts != restarts) {
      base = {shard, restarts, node->epoch};  // new ownership span
    } else if (node->epoch < base.epoch) {
      report("epoch_monotonic", cycle,
             util::format("agent %u epoch went %u -> %u within shard %zu", id, base.epoch,
                          node->epoch, shard));
    } else {
      base.epoch = node->epoch;
    }
  }
  // Drop baselines for agents that left, so a reused id starts fresh.
  for (auto it = agents_.begin(); it != agents_.end();) {
    const bool still_assigned =
        std::any_of(assignments.begin(), assignments.end(),
                    [&](const auto& entry) { return entry.first == it->first; });
    it = still_assigned ? std::next(it) : agents_.erase(it);
  }
}

// I3: with more than one shard, the composite snapshot is the exact union
// of the active shards' snapshots. "Exact" is checkable by pointer: the
// composition shares agent subtrees, so every composite entry must BE the
// owning shard's entry, and the version must be the sum of the shard
// versions. A stale composite (missing invalidation) fails the version sum
// first and the subtree identity second.
void InvariantMonitor::check_composite(std::int64_t cycle) {
  using ShardHealth = ctrl::Coordinator::ShardHealth;
  if (coordinator_->shard_count() < 2) return;
  const auto composite = coordinator_->rib_snapshot();

  std::uint64_t version_sum = 0;
  std::size_t union_count = 0;
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    const auto health = coordinator_->shard_health(i);
    if (health != ShardHealth::alive && health != ShardHealth::draining) continue;
    const auto part = coordinator_->shard(i).rib_snapshot();
    version_sum += part->version();
    union_count += part->agent_count();
    for (const auto& [id, node] : part->agents()) {
      const ctrl::AgentNode* entry = composite->find_agent(id);
      if (entry == nullptr) {
        report("composite_union", cycle,
               util::format("agent %u in shard %zu snapshot but missing from the composite", id,
                            i));
      } else if (entry != node.get()) {
        report("composite_union", cycle,
               util::format("agent %u composite subtree differs from shard %zu's snapshot "
                            "(stale composite)",
                            id, i));
      }
    }
  }
  if (composite->version() != version_sum) {
    report("composite_union", cycle,
           util::format("composite version %llu != sum of active shard versions %llu",
                        static_cast<unsigned long long>(composite->version()),
                        static_cast<unsigned long long>(version_sum)));
  }
  if (composite->agent_count() != union_count) {
    report("composite_union", cycle,
           util::format("composite holds %zu agents, the active shard snapshots %zu",
                        composite->agent_count(), union_count));
  }
}

// I4 + I5: tripwire counters in ShardStats. These are cumulative, so the
// invariant is "never increases"; occupancy is re-checked directly against
// the configured budget every cycle.
void InvariantMonitor::check_shard_counters(std::int64_t cycle,
                                            const std::vector<ctrl::ShardStats>& now) {
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    const auto& core = coordinator_->shard(i);
    const ctrl::ShardStats& prev = shards_[i].stats;
    if (now[i].commands_sent_unresynced > prev.commands_sent_unresynced) {
      report("command_gating", cycle,
             util::format("shard %zu delivered %llu command(s) to non-re-synced agents while "
                          "recovering",
                          i,
                          static_cast<unsigned long long>(now[i].commands_sent_unresynced -
                                                          prev.commands_sent_unresynced)));
    }
    if (now[i].handovers_while_recovering > prev.handovers_while_recovering) {
      report("recovering_handover", cycle,
             util::format("shard %zu sourced %llu handover(s) while recovering", i,
                          static_cast<unsigned long long>(now[i].handovers_while_recovering -
                                                          prev.handovers_while_recovering)));
    }

    const net::QueueBudget& budget = core.ingest_budget();
    if (budget.enabled()) {
      if (budget.max_messages > 0 && core.pending_updates() > budget.max_messages) {
        report("queue_budget", cycle,
               util::format("shard %zu ingest occupancy %zu messages over budget %zu", i,
                            core.pending_updates(), budget.max_messages));
      }
      if (budget.max_bytes > 0 && core.pending_bytes() > budget.max_bytes) {
        report("queue_budget", cycle,
               util::format("shard %zu ingest occupancy %zu bytes over budget %zu", i,
                            core.pending_bytes(), budget.max_bytes));
      }
    }
    if (now[i].ingest_budget_overflows > prev.ingest_budget_overflows) {
      report("queue_budget", cycle,
             util::format("shard %zu admitted %llu unsheddable message(s) past the budget", i,
                          static_cast<unsigned long long>(now[i].ingest_budget_overflows -
                                                          prev.ingest_budget_overflows)));
    }
  }
}

// I6: agent-side counters registered by the scenario layer. An increase
// means a quarantined non-fallback VSF ran again.
void InvariantMonitor::check_quarantine_probes(std::int64_t cycle) {
  for (auto& probe : quarantine_probes_) {
    const std::uint64_t now = probe.probe();
    if (now > probe.last) {
      report("quarantine_respected", cycle,
             util::format("%s invoked a quarantined VSF implementation %llu time(s)",
                          probe.label.c_str(), static_cast<unsigned long long>(now - probe.last)));
    }
    probe.last = now;
  }
}

void InvariantMonitor::report(const char* invariant, std::int64_t cycle, std::string detail) {
  Violation violation;
  violation.invariant = invariant;
  violation.cycle = cycle;
  violation.at_us = coordinator_->now();
  violation.detail = std::move(detail);
  ++violations_total_;
  if (violations_.size() < kMaxStoredViolations) violations_.push_back(violation);
  FLEXRAN_LOG(error, "invariant") << violation.invariant << " violated at cycle " << cycle
                                  << ": " << violation.detail;
  if (mode_ == Mode::trap) {
    std::fprintf(stderr,
                 "\n=== INVARIANT TRAP ===\n%s violated at cycle %lld (t=%lldus)\n  %s\n%s",
                 violation.invariant.c_str(), static_cast<long long>(cycle),
                 static_cast<long long>(violation.at_us), violation.detail.c_str(),
                 dump_state().c_str());
    std::abort();
  }
}

void InvariantMonitor::record_digest(std::int64_t cycle) {
  std::string digest = util::format("cycle %lld t=%lldus:", static_cast<long long>(cycle),
                                    static_cast<long long>(coordinator_->now()));
  for (std::size_t i = 0; i < coordinator_->shard_count(); ++i) {
    const auto& core = coordinator_->shard(i);
    digest += util::format(" shard%zu[%s inc=%u v=%llu agents=%zu%s]", i,
                           ctrl::to_string(coordinator_->shard_health(i)), core.incarnation(),
                           static_cast<unsigned long long>(core.snapshot_version()),
                           core.rib().agents().size(), core.recovering() ? " recovering" : "");
  }
  digests_.push_back(std::move(digest));
  while (digests_.size() > kDigestCycles) digests_.pop_front();
}

std::string InvariantMonitor::dump_state() const {
  std::string out = "--- last cycles (oldest first) ---\n";
  for (const auto& digest : digests_) out += digest + "\n";
  out += "--- assignment ---\n";
  for (const auto& [id, shard] : coordinator_->assignments()) {
    out += util::format("agent %u -> shard %zu\n", id, shard);
  }
  return out;
}

std::vector<std::string> InvariantMonitor::violation_summaries(std::size_t limit) const {
  std::vector<std::string> out;
  for (const auto& violation : violations_) {
    if (out.size() >= limit) break;
    out.push_back(util::format("%s@%lld: %s", violation.invariant.c_str(),
                               static_cast<long long>(violation.cycle),
                               violation.detail.c_str()));
  }
  return out;
}

}  // namespace flexran::verify
