#include "verify/fuzzer.h"

#include <algorithm>

#include "util/rng.h"
#include "util/strings.h"

namespace flexran::verify {

namespace {

/// Milliseconds-grid draw in [lo_ms, hi_ms], returned in seconds. The
/// whole generator works on a 1 ms grid so scenario_to_yaml's %.3f
/// round-trips every value exactly.
double ms_grid(util::Rng& rng, int lo_ms, int hi_ms) {
  return static_cast<double>(rng.uniform_int(lo_ms, hi_ms)) / 1000.0;
}

/// Picks an eNodeB target: the whole fleet (-1) or one index.
int pick_enb(util::Rng& rng, std::size_t enbs) {
  return static_cast<int>(rng.uniform_int(-1, static_cast<std::int64_t>(enbs) - 1));
}

/// Picks one index from the currently-active shards.
int pick_active_shard(util::Rng& rng, const std::vector<bool>& active) {
  std::vector<int> candidates;
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i]) candidates.push_back(static_cast<int>(i));
  }
  return candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

}  // namespace

scenario::ScenarioSpec generate_scenario(const FuzzConfig& config) {
  util::Rng rng(config.seed);
  scenario::ScenarioSpec spec;
  spec.duration_s = config.duration_s;
  spec.stats_period_ttis = 2;
  spec.seed = config.seed;

  // Topology: 2-4 cells over 1-3 shards; a defect self-check needs the
  // composite path, which only exists with shards >= 2.
  spec.shards = static_cast<std::size_t>(rng.uniform_int(1, 3));
  if (!config.defect.empty()) spec.shards = std::max<std::size_t>(2, spec.shards);
  spec.defect = config.defect;
  spec.invariants = "log";
  spec.remote_scheduler = rng.chance(0.5);
  spec.schedule_ahead_sf = 8;

  // Fault-tolerance knobs mirror the hand-written chaos scenarios: tight
  // enough that faults are observed, loose enough that the settle tail
  // always converges.
  spec.agent_timeout_ms = 50.0;
  spec.agent_disconnect_timeout_ms = 200.0;
  spec.request_timeout_ms = 30.0;
  if (rng.chance(0.5)) {
    spec.ingest_max_messages = 32;
    spec.ingest_max_bytes = 16384;
  }
  spec.master_recovery = true;
  spec.resync_tokens_per_s = 20.0;
  spec.resync_burst = 2.0;
  spec.resync_retry_after_ms = 40.0;
  spec.readiness_quorum = 1.0;
  spec.readiness_timeout_ms = 1500.0;
  spec.warm_checkpoint = rng.chance(0.5);
  spec.checkpoint_period_s = 0.3;

  const auto enb_count = static_cast<std::size_t>(rng.uniform_int(2, 4));
  for (std::size_t i = 0; i < enb_count; ++i) {
    scenario::ScenarioEnbSpec enb;
    enb.enb_id = static_cast<lte::EnbId>(i + 1);
    enb.name = "fuzz-" + std::to_string(i + 1);
    if (spec.shards > 1 && rng.chance(0.4)) {
      enb.shard = rng.uniform_int(0, static_cast<std::int64_t>(spec.shards) - 1);
    }
    enb.control_delay_ms = static_cast<double>(rng.uniform_int(1, 3));
    enb.remote_fallback_ttis = 30;
    spec.enbs.push_back(std::move(enb));
  }
  for (std::size_t i = 0; i < enb_count; ++i) {
    scenario::ScenarioUeSpec ue;
    ue.enb = static_cast<lte::EnbId>(i + 1);
    ue.cqi = static_cast<int>(rng.uniform_int(8, 15));
    if (rng.chance(0.5)) {
      ue.traffic = "cbr";
      ue.rate_mbps = static_cast<double>(rng.uniform_int(1, 3));
    }
    spec.ues.push_back(std::move(ue));
  }

  // Schedule: draw the times first (sorted, ms grid, inside the window
  // that leaves a 2 s settle tail), then assign kinds in time order so
  // shard-state constraints (at least one survivor, no dead targets) hold
  // at each event's firing time.
  const int window_lo_ms = 200;
  const int window_hi_ms = static_cast<int>((config.duration_s - 2.2) * 1000.0);
  const auto fault_count =
      window_hi_ms > window_lo_ms ? rng.uniform_int(0, config.max_faults) : 0;
  std::vector<int> times_ms;
  for (std::int64_t i = 0; i < fault_count; ++i) {
    times_ms.push_back(static_cast<int>(rng.uniform_int(window_lo_ms, window_hi_ms)));
  }
  std::sort(times_ms.begin(), times_ms.end());

  std::vector<bool> shard_active(spec.shards, true);
  bool drain_used = false;
  for (const int at_ms : times_ms) {
    const auto active_count = static_cast<std::size_t>(
        std::count(shard_active.begin(), shard_active.end(), true));
    // Candidate kinds legal at this point of the timeline.
    std::vector<scenario::FaultKind> kinds = {
        scenario::FaultKind::partition,    scenario::FaultKind::delay_spike,
        scenario::FaultKind::corrupt,      scenario::FaultKind::duplicate,
        scenario::FaultKind::reorder,      scenario::FaultKind::crash,
        scenario::FaultKind::flap,         scenario::FaultKind::vsf_crash,
        scenario::FaultKind::vsf_overrun,  scenario::FaultKind::vsf_invalid,
        scenario::FaultKind::report_flood, scenario::FaultKind::master_crash,
    };
    if (active_count >= 2) {
      kinds.push_back(scenario::FaultKind::shard_kill);
      if (!drain_used) kinds.push_back(scenario::FaultKind::shard_drain);
    }
    scenario::FaultEvent fault;
    fault.at_s = static_cast<double>(at_ms) / 1000.0;
    fault.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    switch (fault.kind) {
      case scenario::FaultKind::partition:
        fault.enb = pick_enb(rng, enb_count);
        fault.duration_s = ms_grid(rng, 50, 300);
        break;
      case scenario::FaultKind::delay_spike:
        fault.enb = pick_enb(rng, enb_count);
        fault.delay_ms = static_cast<double>(rng.uniform_int(5, 40));
        fault.duration_s = ms_grid(rng, 50, 300);
        break;
      case scenario::FaultKind::corrupt:
      case scenario::FaultKind::duplicate:
      case scenario::FaultKind::reorder:
        fault.enb = pick_enb(rng, enb_count);
        fault.count = static_cast<int>(rng.uniform_int(1, 6));
        break;
      case scenario::FaultKind::crash:
        // Every generated crash restarts; a crash with no restart can
        // never pass the end-state bar and would drown real findings.
        fault.enb = pick_enb(rng, enb_count);
        fault.duration_s = ms_grid(rng, 50, 400);
        break;
      case scenario::FaultKind::flap:
        fault.enb = pick_enb(rng, enb_count);
        fault.count = static_cast<int>(rng.uniform_int(2, 4));
        fault.period_s = ms_grid(rng, 20, 50);
        break;
      case scenario::FaultKind::vsf_crash:
      case scenario::FaultKind::vsf_overrun:
      case scenario::FaultKind::vsf_invalid:
        fault.enb = pick_enb(rng, enb_count);
        break;
      case scenario::FaultKind::report_flood:
        fault.enb = pick_enb(rng, enb_count);
        fault.count = static_cast<int>(rng.uniform_int(8, 32));
        fault.duration_s = ms_grid(rng, 200, 500);
        break;
      case scenario::FaultKind::master_crash:
        // Target a live shard: restarting an already-dead core would test
        // a state no operator can reach.
        fault.shard = pick_active_shard(rng, shard_active);
        fault.duration_s = ms_grid(rng, 100, 300);
        break;
      case scenario::FaultKind::shard_kill:
        fault.shard = pick_active_shard(rng, shard_active);
        shard_active[static_cast<std::size_t>(fault.shard)] = false;
        break;
      case scenario::FaultKind::shard_drain:
        fault.shard = pick_active_shard(rng, shard_active);
        shard_active[static_cast<std::size_t>(fault.shard)] = false;
        drain_used = true;
        break;
      case scenario::FaultKind::heal:
      case scenario::FaultKind::restart:
        break;  // never generated standalone
    }
    spec.faults.push_back(fault);
  }
  return spec;
}

RunVerdict run_fuzz_spec(const scenario::ScenarioSpec& spec) {
  scenario::ScenarioSpec run = spec;
  // The monitor must observe and count, never abort: minimization needs
  // to compare verdicts across dozens of trial runs.
  run.invariants = "log";
  const auto summary = scenario::run_scenario(run);
  RunVerdict verdict;
  verdict.invariant_checks = summary.invariant_checks;
  verdict.invariant_violations = summary.invariant_violations;
  if (summary.invariant_violations > 0) {
    verdict.violated = true;
    verdict.reasons.push_back(
        util::format("%llu invariant violations",
                     static_cast<unsigned long long>(summary.invariant_violations)));
    for (const auto& detail : summary.invariant_details) {
      verdict.reasons.push_back(detail);
    }
  }
  // End-state bar, identical to `flexran-sim --check`: whatever was
  // injected, the control plane must have converged by the end.
  if (summary.agents_up != summary.agents_total) {
    verdict.violated = true;
    verdict.reasons.push_back(util::format("only %d/%d agents up at end",
                                           summary.agents_up, summary.agents_total));
  }
  if (summary.recovering_at_end) {
    verdict.violated = true;
    verdict.reasons.push_back("a shard was still recovering at end");
  }
  if (summary.failover.agents_orphaned > 0) {
    verdict.violated = true;
    verdict.reasons.push_back(util::format(
        "%llu agents orphaned", static_cast<unsigned long long>(summary.failover.agents_orphaned)));
  }
  if (summary.failover.failover_pending > 0) {
    verdict.violated = true;
    verdict.reasons.push_back(
        util::format("%llu adoptions still pending",
                     static_cast<unsigned long long>(summary.failover.failover_pending)));
  }
  return verdict;
}

scenario::ScenarioSpec minimize_schedule(const scenario::ScenarioSpec& spec,
                                         std::uint64_t* runs) {
  scenario::ScenarioSpec best = spec;
  bool shrunk = true;
  while (shrunk && !best.faults.empty()) {
    shrunk = false;
    for (std::size_t i = 0; i < best.faults.size(); ++i) {
      scenario::ScenarioSpec trial = best;
      trial.faults.erase(trial.faults.begin() + static_cast<std::ptrdiff_t>(i));
      if (runs != nullptr) ++*runs;
      if (run_fuzz_spec(trial).violated) {
        best = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return best;
}

std::string repro_yaml(const scenario::ScenarioSpec& spec,
                       const std::vector<std::string>& reasons) {
  std::string out = "# Minimized chaos repro (docs/chaos_fuzzing.md).\n";
  out += util::format("# Found by flexran-fuzz --seed=%llu; %zu fault(s) survived "
                      "minimization.\n",
                      static_cast<unsigned long long>(spec.seed), spec.faults.size());
  for (const auto& reason : reasons) out += "# violated: " + reason + "\n";
  out += "# Replay: ./build/tools/flexran-sim <this file> --check\n";
  out += scenario::scenario_to_yaml(spec);
  return out;
}

FuzzResult fuzz_seed(const FuzzConfig& config, bool minimize) {
  FuzzResult result;
  result.seed = config.seed;
  result.spec = generate_scenario(config);
  auto verdict = run_fuzz_spec(result.spec);
  result.runs = 1;
  result.violated = verdict.violated;
  result.reasons = verdict.reasons;
  result.invariant_checks = verdict.invariant_checks;
  result.minimized = result.spec;
  if (result.violated && minimize) {
    result.minimized = minimize_schedule(result.spec, &result.runs);
    // Re-run the survivor once so the repro header carries the reasons
    // of the minimized schedule, not the original one.
    auto final_verdict = run_fuzz_spec(result.minimized);
    ++result.runs;
    if (!final_verdict.reasons.empty()) result.reasons = final_verdict.reasons;
  }
  if (result.violated) result.repro = repro_yaml(result.minimized, result.reasons);
  return result;
}

}  // namespace flexran::verify
