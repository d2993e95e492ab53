// Runtime verification of the control plane's safety properties
// (docs/fault_tolerance.md "Invariant catalog"). The InvariantMonitor
// installs itself as the Coordinator's post-cycle hook and re-checks,
// after every coordinator cycle, the invariants the rest of the codebase
// only implies:
//
//   I1 single ownership  -- no agent lives in two active shards' RIBs, and
//      none is assigned to a dead shard while a survivor could adopt it
//   I2 monotonicity      -- shard incarnations and snapshot versions never
//      go backwards; per-agent session epochs never regress within one
//      (shard, restart) ownership span
//   I3 composite union   -- the composite RibSnapshot is the exact union
//      of the active shards' snapshots (same keys, shared subtrees) with
//      version = sum of the shard versions
//   I4 command gating    -- no command reaches a non-re-synced agent while
//      its shard recovers, and no recovering shard sources handovers
//   I5 bounded queues    -- ingest occupancy never exceeds the configured
//      budget, and nothing unsheddable is admitted past it
//   I6 quarantine        -- a quarantined (non-fallback) VSF implementation
//      is never invoked again
//
// Modes: `off` (free), `log` (count + record violations; the fuzzer's
// mode, so it can minimize), `trap` (abort with the violation and a trace
// of recent cycle digests; what ctest scenarios and the chaos soaks run
// with). All checks run on the coordinator thread inside run_cycle().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "controller/coordinator.h"

namespace flexran::verify {

enum class Mode { off, log, trap };

/// Parses "off" | "log" | "trap".
util::Result<Mode> parse_mode(const std::string& name);

/// One recorded invariant breach.
struct Violation {
  std::string invariant;  // catalog key, e.g. "composite_union"
  std::int64_t cycle = 0;
  sim::TimeUs at_us = 0;
  std::string detail;
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(ctrl::Coordinator& coordinator, Mode mode = Mode::log);

  /// Installs the monitor as the coordinator's post-cycle hook. The
  /// monitor must outlive the coordinator's last run_cycle().
  void install();


  /// Registers an agent-side input for I6: a probe returning that agent's
  /// cumulative count of quarantined (non-fallback) VSF invocations. The
  /// monitor depends only on the controller layer; agent state crosses
  /// this seam as plain counters.
  void add_quarantine_probe(std::string label, std::function<std::uint64_t()> probe);

  std::uint64_t checks_run() const { return checks_run_; }
  std::uint64_t violations_total() const { return violations_total_; }
  /// "invariant@cycle: detail" lines for the first `limit` violations.
  std::vector<std::string> violation_summaries(std::size_t limit = 16) const;

 private:
  /// Per-agent epoch baseline, valid for one (owning shard, shard restart
  /// count) span: adoption and master restart legitimately reset the
  /// observed epoch, so the baseline re-arms when either moves.
  struct AgentBaseline {
    std::size_t shard = 0;
    std::uint64_t shard_restarts = 0;
    std::uint32_t epoch = 0;
  };
  /// Each shard's state as of the previous check.
  struct ShardBaseline {
    std::uint32_t incarnation = 0;
    ctrl::ShardStats stats;
  };
  struct QuarantineProbe {
    std::string label;
    std::function<std::uint64_t()> probe;
    std::uint64_t last = 0;
  };

  void check_cycle(std::int64_t cycle);
  void check_ownership(std::int64_t cycle);
  void check_monotonicity(std::int64_t cycle, const std::vector<ctrl::ShardStats>& now);
  void check_composite(std::int64_t cycle);
  void check_shard_counters(std::int64_t cycle, const std::vector<ctrl::ShardStats>& now);
  void check_quarantine_probes(std::int64_t cycle);
  void report(const char* invariant, std::int64_t cycle, std::string detail);
  void record_digest(std::int64_t cycle);
  std::string dump_state() const;

  ctrl::Coordinator* coordinator_;
  Mode mode_;
  std::map<ctrl::AgentId, AgentBaseline> agents_;
  std::vector<ShardBaseline> shards_;
  std::vector<QuarantineProbe> quarantine_probes_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_total_ = 0;
  std::vector<Violation> violations_;
  /// Last few per-cycle digests, dumped by trap mode so the abort carries
  /// the run-up, not just the moment of death.
  std::deque<std::string> digests_;
};

}  // namespace flexran::verify
