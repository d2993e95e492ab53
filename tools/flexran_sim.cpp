// flexran_sim: run a declarative FlexRAN scenario from a YAML file.
//
//   flexran_sim scenario.yaml                 # run the given scenario
//   flexran_sim --demo                        # run a built-in two-cell demo
//   flexran_sim --metrics-json[=FILE] s.yaml  # also dump periodic metrics JSON
//   flexran_sim --metrics-prom[=FILE] s.yaml  # also dump a Prometheus snapshot
//   flexran_sim --seed=N s.yaml               # override the scenario RNG seed
//   flexran_sim --check s.yaml                # exit 1 on end-state invariants
//   flexran_sim --invariants=MODE s.yaml      # runtime monitor: off|log|trap
//   flexran_sim --help
//
// Scenario format: see src/scenario/config.h and docs/PROTOCOL.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/config.h"

namespace {

constexpr const char* kDemoScenario = R"(# flexran_sim --demo
duration_s: 4
stats_period_ttis: 1
remote_scheduler: false
enbs:
  - enb_id: 1
    name: macro-east
    dl_scheduler: local_rr
  - enb_id: 2
    name: macro-west
    dl_scheduler: local_pf
    control_delay_ms: 5
ues:
  - enb: 1
    cqi: 15
    traffic: full_buffer
  - enb: 1
    cqi: 8
    traffic: full_buffer
  - enb: 2
    cqi: 12
    traffic: cbr
    rate_mbps: 4
  - enb: 2
    cqi: 10
    traffic: cbr
    rate_mbps: 2
)";

void print_usage() {
  std::printf(
      "usage: flexran_sim [--metrics-json[=FILE]] [--metrics-prom[=FILE]] "
      "[--seed=N] [--check] [--invariants=MODE] <scenario.yaml> | --demo\n\n"
      "Runs a FlexRAN scenario (master controller + agent-enabled eNodeBs +\n"
      "UEs + traffic) inside the discrete-event simulator and prints per-UE\n"
      "throughput and controller statistics.\n\n"
      "Scenario keys: duration_s, stats_period_ttis, remote_scheduler,\n"
      "schedule_ahead_sf, observability, metrics_period_s, enbs[] (enb_id,\n"
      "name, dl_scheduler, ul_scheduler, control_delay_ms), ues[] (enb, cqi,\n"
      "ul_cqi, traffic, rate_mbps).\n\n"
      "--metrics-json emits the periodic registry dumps (one JSON object per\n"
      "line); --metrics-prom emits a Prometheus text snapshot of the final\n"
      "state. Both imply `observability: true` and write to stdout unless a\n"
      "=FILE destination is given. See docs/observability.md.\n\n"
      "--seed=N overrides the scenario's base RNG seed (eNodeB i gets seed\n"
      "N+i), for chaos soaks sweeping seeds without editing the document.\n"
      "--check exits 1 when the run ends in a bad state: any agent not up,\n"
      "any shard still recovering, any orphan unadopted, any adoption still\n"
      "pending, or any runtime invariant violation the monitor recorded.\n"
      "See docs/fault_tolerance.md.\n\n"
      "--invariants=off|log|trap overrides the scenario's runtime\n"
      "InvariantMonitor mode: `log` counts violations into the summary,\n"
      "`trap` aborts with a cycle trace on the first one (what the chaos\n"
      "soaks run with). See docs/chaos_fuzzing.md.\n");
}

/// Writes `text` to `path`, or to stdout when `path` is empty.
bool emit(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "flexran_sim: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool want_json = false;
  bool want_prom = false;
  bool want_check = false;
  long long seed_override = -1;
  std::string invariants_override;
  std::string json_path;
  std::string prom_path;
  std::string scenario_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--metrics-json" || arg.rfind("--metrics-json=", 0) == 0) {
      want_json = true;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        json_path = arg.substr(eq + 1);
      }
    } else if (arg == "--metrics-prom" || arg.rfind("--metrics-prom=", 0) == 0) {
      want_prom = true;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        prom_path = arg.substr(eq + 1);
      }
    } else if (arg == "--check") {
      want_check = true;
    } else if (arg.rfind("--invariants=", 0) == 0) {
      invariants_override = arg.substr(std::strlen("--invariants="));
      if (invariants_override != "off" && invariants_override != "log" &&
          invariants_override != "trap") {
        std::fprintf(stderr, "flexran_sim: --invariants must be off | log | trap\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed_override = std::atoll(arg.c_str() + std::strlen("--seed="));
      if (seed_override < 1) {
        std::fprintf(stderr, "flexran_sim: --seed must be >= 1\n");
        return 2;
      }
    } else if (scenario_arg.empty()) {
      scenario_arg = arg;
    } else {
      print_usage();
      return 2;
    }
  }
  if (scenario_arg.empty()) {
    print_usage();
    return 2;
  }

  std::string yaml;
  if (scenario_arg == "--demo") {
    yaml = kDemoScenario;
    std::printf("running built-in demo scenario:\n%s\n", kDemoScenario);
  } else {
    std::ifstream file(scenario_arg);
    if (!file) {
      std::fprintf(stderr, "flexran_sim: cannot open %s\n", scenario_arg.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    yaml = buffer.str();
  }

  auto spec = flexran::scenario::parse_scenario(yaml);
  if (!spec.ok()) {
    std::fprintf(stderr, "flexran_sim: bad scenario: %s\n", spec.error().message.c_str());
    return 1;
  }
  if (want_json || want_prom) spec->observability = true;
  if (seed_override > 0) spec->seed = static_cast<std::uint64_t>(seed_override);
  if (!invariants_override.empty()) spec->invariants = invariants_override;
  const auto summary = flexran::scenario::run_scenario(*spec);
  std::fputs(flexran::scenario::format_summary(summary).c_str(), stdout);
  if (want_json) {
    std::string dumps;
    for (const auto& dump : summary.metrics_json) dumps += dump + "\n";
    if (!emit(json_path, dumps)) return 1;
  }
  if (want_prom && !emit(prom_path, summary.metrics_prometheus)) return 1;
  if (want_check) {
    // End-state invariants every chaos scenario is expected to restore,
    // whatever was injected mid-run. Violations mean the control plane
    // failed to converge, not that the fault fired.
    int bad = 0;
    const auto violation = [&bad](const char* what) {
      std::fprintf(stderr, "flexran_sim: check failed: %s\n", what);
      ++bad;
    };
    if (summary.agents_up != summary.agents_total) violation("not every agent ended up");
    if (summary.recovering_at_end) violation("a shard was still recovering at the end");
    if (summary.failover.agents_orphaned > 0) violation("orphaned agents were never adopted");
    if (summary.failover.failover_pending > 0) violation("adopted agents never finished re-sync");
    if (summary.invariant_violations > 0) violation("runtime invariants were violated");
    if (bad > 0) return 1;
    std::printf("check: ok (%d/%d agents up)\n", summary.agents_up, summary.agents_total);
  }
  return 0;
}
