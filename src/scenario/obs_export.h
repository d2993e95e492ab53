// Scenario-side bridge into the unified observability layer
// (docs/observability.md): one collector in the master's MetricsRegistry
// for what the master cannot see from its side of the wire -- agent-side
// signaling accountants, agent session counters, and per-link SimTransport
// frame counters -- and the one-block human summary the CLI prints.
//
// Everything here is export-time only (the collector reads existing
// accessors); nothing is added to any hot path.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "scenario/testbed.h"

namespace flexran::scenario {

/// Registers the testbed collector: agent and control-link series for
/// every eNodeB in the testbed at export time. Only meaningful when the
/// master was built with `obs.enabled` (otherwise these would be the
/// registry's only content). The handle must be destroyed before the
/// testbed.
[[nodiscard]] obs::MetricsRegistry::Registration add_testbed_collector(Testbed& testbed);

/// Renders the unified metrics block for the scenario summary: registry
/// size, cycle-stage breakdown, per-agent control-latency quantiles, and
/// the master-side signaling totals per category.
std::string format_metrics_block(Testbed& testbed);

}  // namespace flexran::scenario
