// Runtime invariant monitor + deterministic chaos fuzzer
// (docs/chaos_fuzzing.md): clean runs stay clean, a deliberately
// re-introduced defect is caught and named, trap mode aborts with a
// trace, generation is bit-deterministic in the seed, and a violating
// schedule minimizes to a standalone repro that still violates when
// parsed back and re-run.
#include <gtest/gtest.h>

#include <string>

#include "scenario/config.h"
#include "verify/fuzzer.h"
#include "verify/invariants.h"

namespace flexran {
namespace {

// A small sharded chaos scenario: fast enough for a unit test, busy
// enough (kill + recovery) that every invariant's inputs actually move.
scenario::ScenarioSpec sharded_spec(const std::string& invariants,
                                    const std::string& defect = "") {
  const std::string yaml = R"(duration_s: 2
stats_period_ttis: 2
shards: 2
agent_timeout_ms: 50
agent_disconnect_timeout_ms: 200
request_timeout_ms: 30
master_recovery: true
resync_tokens_per_s: 50
warm_checkpoint: true
checkpoint_period_s: 0.2
invariants: )" + invariants +
                           (defect.empty() ? "" : "\ndefect: " + defect) + R"(
enbs:
  - enb_id: 1
    shard: 0
  - enb_id: 2
    shard: 0
  - enb_id: 3
    shard: 1
ues:
  - enb: 1
    cqi: 12
faults:
  - at_s: 0.3
    kind: duplicate
    enb: -1
    count: 4
  - at_s: 0.5
    kind: shard_kill
    shard: 0
)";
  auto spec = scenario::parse_scenario(yaml);
  EXPECT_TRUE(spec.ok()) << (spec.ok() ? "" : spec.error().message);
  return *spec;
}

TEST(InvariantMonitor, CleanShardedChaosRunHasNoViolations) {
  const auto summary = scenario::run_scenario(sharded_spec("log"));
  EXPECT_GT(summary.invariant_checks, 0u);
  std::string details;
  for (const auto& line : summary.invariant_details) details += line + "\n";
  EXPECT_EQ(summary.invariant_violations, 0u) << details;
  EXPECT_EQ(summary.agents_up, summary.agents_total);
}

TEST(InvariantMonitor, OffModeRunsNoChecks) {
  const auto summary = scenario::run_scenario(sharded_spec("off"));
  EXPECT_EQ(summary.invariant_checks, 0u);
}

TEST(InvariantMonitor, StaleCompositeDefectIsCaughtAndNamed) {
  const auto summary = scenario::run_scenario(sharded_spec("log", "stale_composite"));
  EXPECT_GT(summary.invariant_violations, 0u);
  ASSERT_FALSE(summary.invariant_details.empty());
  EXPECT_NE(summary.invariant_details.front().find("composite_union"), std::string::npos)
      << summary.invariant_details.front();
}

TEST(InvariantMonitorDeathTest, TrapModeAbortsWithTrace) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(scenario::run_scenario(sharded_spec("trap", "stale_composite")),
               "INVARIANT TRAP");
}

TEST(InvariantMonitor, ParseModeRejectsUnknownNames) {
  EXPECT_TRUE(verify::parse_mode("trap").ok());
  EXPECT_FALSE(verify::parse_mode("tarp").ok());
  EXPECT_FALSE(scenario::parse_scenario("duration_s: 1\ninvariants: loud\nenbs:\n"
                                        "  - enb_id: 1\n")
                   .ok());
  EXPECT_FALSE(scenario::parse_scenario("duration_s: 1\ndefect: off_by_one\nenbs:\n"
                                        "  - enb_id: 1\n")
                   .ok());
}

// ------------------------------------------------------------------ fuzzer --

TEST(ChaosFuzzer, GenerationIsDeterministicInTheSeed) {
  verify::FuzzConfig config;
  config.seed = 11;
  const auto a = verify::generate_scenario(config);
  const auto b = verify::generate_scenario(config);
  EXPECT_EQ(scenario::scenario_to_yaml(a), scenario::scenario_to_yaml(b));
  config.seed = 12;
  const auto c = verify::generate_scenario(config);
  EXPECT_NE(scenario::scenario_to_yaml(a), scenario::scenario_to_yaml(c));
}

TEST(ChaosFuzzer, GeneratedSpecsRoundTripThroughYaml) {
  for (std::uint64_t seed : {1ull, 4ull, 9ull}) {
    verify::FuzzConfig config;
    config.seed = seed;
    const auto spec = verify::generate_scenario(config);
    const auto yaml = scenario::scenario_to_yaml(spec);
    auto reparsed = scenario::parse_scenario(yaml);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message << "\n" << yaml;
    // Emit(parse(emit(spec))) is a fixed point: every field the fuzzer
    // generates survives the round trip exactly.
    EXPECT_EQ(scenario::scenario_to_yaml(*reparsed), yaml);
    EXPECT_EQ(reparsed->seed, spec.seed);
    EXPECT_EQ(reparsed->shards, spec.shards);
    ASSERT_EQ(reparsed->faults.size(), spec.faults.size());
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      EXPECT_EQ(reparsed->faults[i].kind, spec.faults[i].kind);
      EXPECT_DOUBLE_EQ(reparsed->faults[i].at_s, spec.faults[i].at_s);
      EXPECT_EQ(reparsed->faults[i].shard, spec.faults[i].shard);
    }
  }
}

TEST(ChaosFuzzer, GeneratedSchedulesKeepASurvivingShard) {
  // Structural guarantees over many seeds, without running anything:
  // shard-fatal faults never exhaust the fleet, crashes always restart,
  // and every fault fires inside the settle window.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    verify::FuzzConfig config;
    config.seed = seed;
    const auto spec = verify::generate_scenario(config);
    std::size_t fatal = 0;
    for (const auto& fault : spec.faults) {
      EXPECT_GE(fault.at_s, 0.2);
      EXPECT_LE(fault.at_s, spec.duration_s - 2.2 + 1e-9);
      if (fault.kind == scenario::FaultKind::shard_kill ||
          fault.kind == scenario::FaultKind::shard_drain) {
        ++fatal;
        EXPECT_GE(fault.shard, 0);
      }
      if (fault.kind == scenario::FaultKind::crash) {
        EXPECT_GT(fault.duration_s, 0.0);
      }
    }
    EXPECT_LT(fatal, spec.shards) << "seed " << seed << " left no survivor";
  }
}

TEST(ChaosFuzzer, CleanSeedPassesEndToEnd) {
  verify::FuzzConfig config;
  config.seed = 2;
  const auto result = verify::fuzz_seed(config);
  std::string reasons;
  for (const auto& reason : result.reasons) reasons += reason + "\n";
  EXPECT_FALSE(result.violated) << reasons;
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_TRUE(result.repro.empty());
}

TEST(ChaosFuzzer, DefectIsCaughtMinimizedAndReproReplays) {
  verify::FuzzConfig config;
  config.seed = 3;
  config.duration_s = 3.0;
  config.max_faults = 2;
  config.defect = "stale_composite";
  const auto result = verify::fuzz_seed(config);
  ASSERT_TRUE(result.violated);
  // The defect violates with no chaos at all, so minimization strips the
  // schedule to nothing -- the repro is the topology alone.
  EXPECT_TRUE(result.minimized.faults.empty());
  ASSERT_FALSE(result.repro.empty());

  // The repro is a standalone scenario document: parse it back, run it,
  // and it must still violate (this is exactly what
  // `flexran-sim repro.yaml --check` does).
  auto reparsed = scenario::parse_scenario(result.repro);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed->defect, "stale_composite");
  EXPECT_GE(reparsed->shards, 2u);
  const auto verdict = verify::run_fuzz_spec(*reparsed);
  EXPECT_TRUE(verdict.violated);
  EXPECT_GT(verdict.invariant_violations, 0u);
}

}  // namespace
}  // namespace flexran
