// Monitoring application: the paper's canonical non-time-critical app.
// Periodically snapshots the RIB into a summary other services can consume
// (the MEC app of Sec. 6.2 is conceptually a consumer of this).
#pragma once

#include <map>

#include "controller/app.h"

namespace flexran::apps {

class MonitoringApp final : public ctrl::App {
 public:
  struct AgentSummary {
    std::size_t ue_count = 0;
    double mean_cqi = 0.0;
    std::uint64_t total_queue_bytes = 0;
    std::uint64_t total_dl_bytes = 0;

    bool operator==(const AgentSummary&) const = default;
  };

  /// Snapshot every `period_cycles` task-manager cycles.
  explicit MonitoringApp(std::int64_t period_cycles = 100) : period_(period_cycles) {}

  std::string_view name() const override { return "monitoring"; }
  int priority() const override { return 200; }  // explicitly non-critical

  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& api) override;

  const std::map<ctrl::AgentId, AgentSummary>& summaries() const { return summaries_; }
  std::int64_t snapshots_taken() const { return snapshots_; }

 private:
  std::int64_t period_;
  std::int64_t snapshots_ = 0;
  std::map<ctrl::AgentId, AgentSummary> summaries_;
};

}  // namespace flexran::apps
