#include "controller/arbiter.h"

#include <limits>

#include "controller/rib_snapshot.h"

namespace flexran::ctrl {

util::Status ConflictArbiter::claim_dl(AgentId agent, const proto::DlMacConfig& config) {
  lte::RbAllocation combined;
  for (const auto& dci : config.dcis) {
    if (dci.rbs.overlaps(combined)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++conflicts_;
      return util::Error::conflict("decision overlaps itself (rnti " +
                                   std::to_string(dci.rnti) + ")");
    }
    combined.merge(dci.rbs);
  }
  const auto key = std::pair{agent, config.target_subframe};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = claims_.find(key);
  if (it != claims_.end() && it->second.overlaps(combined)) {
    ++conflicts_;
    return util::Error::conflict("PRBs for subframe " +
                                 std::to_string(config.target_subframe) +
                                 " already claimed by an earlier decision");
  }
  if (it == claims_.end()) {
    claims_.emplace(key, combined);
  } else {
    it->second.merge(combined);
  }
  return {};
}

void ConflictArbiter::prune(const Rib& rib) {
  constexpr std::int64_t kLast = std::numeric_limits<std::int64_t>::max();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = claims_.begin();
  while (it != claims_.end()) {
    // Claims sort by (agent, subframe): each agent's form one run, led by
    // the subframes it has passed. Skipping to the next run by search
    // keeps the claims still ahead of their agent unvisited.
    const AgentId agent = it->first.first;
    const auto next_agent = claims_.upper_bound({agent, kLast});
    const AgentNode* node = rib.find_agent(agent);
    claims_.erase(it, node != nullptr ? claims_.lower_bound({agent, node->last_subframe})
                                      : next_agent);
    it = next_agent;
  }
}

void ConflictArbiter::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  claims_.clear();
}

std::uint64_t ConflictArbiter::conflicts_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conflicts_;
}

std::size_t ConflictArbiter::open_claims() const {
  std::lock_guard<std::mutex> lock(mu_);
  return claims_.size();
}

}  // namespace flexran::ctrl
