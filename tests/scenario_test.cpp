#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "proto/messages.h"
#include "scenario/config.h"
#include "scenario/metrics.h"

namespace flexran::scenario {
namespace {

// ----------------------------------------------------------------- metrics --

TEST(Metrics, TotalsByUeEnbAndDirection) {
  Metrics metrics;
  metrics.record(1, 70, lte::Direction::downlink, 1000);
  metrics.record(1, 70, lte::Direction::downlink, 500);
  metrics.record(1, 71, lte::Direction::downlink, 200);
  metrics.record(1, 70, lte::Direction::uplink, 50);
  metrics.record(2, 72, lte::Direction::downlink, 900);

  EXPECT_EQ(metrics.total_bytes(1, 70, lte::Direction::downlink), 1500u);
  EXPECT_EQ(metrics.total_bytes(1, 70, lte::Direction::uplink), 50u);
  EXPECT_EQ(metrics.total_bytes_enb(1, lte::Direction::downlink), 1700u);
  EXPECT_EQ(metrics.total_bytes_enb(2, lte::Direction::downlink), 900u);
  EXPECT_EQ(metrics.total_bytes(9, 9, lte::Direction::downlink), 0u);
}

TEST(Metrics, WindowSeriesIncludeZeroRateGaps) {
  Metrics metrics;
  metrics.record(1, 70, lte::Direction::downlink, 125'000);  // 1 Mb over 1 s
  metrics.sample_window(sim::from_seconds(1.0));
  // Nothing delivered in the second window.
  metrics.sample_window(sim::from_seconds(2.0));
  const auto it = metrics.all_series().find({1, 70, lte::Direction::downlink});
  ASSERT_NE(it, metrics.all_series().end());
  const auto* series = &it->second;
  ASSERT_EQ(series->points().size(), 2u);
  EXPECT_NEAR(series->points()[0].value, 1.0, 0.01);
  EXPECT_DOUBLE_EQ(series->points()[1].value, 0.0);
}

TEST(Metrics, MbpsHelper) {
  EXPECT_DOUBLE_EQ(Metrics::mbps(1'250'000, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Metrics::mbps(100, 0.0), 0.0);
}

// ------------------------------------------------------------ config parse --

TEST(ScenarioConfig, ParsesFullDocument) {
  const char* yaml =
      "duration_s: 3.5\n"
      "stats_period_ttis: 2\n"
      "remote_scheduler: true\n"
      "schedule_ahead_sf: 6\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "    name: east\n"
      "    dl_scheduler: local_pf\n"
      "    control_delay_ms: 7.5\n"
      "  - enb_id: 2\n"
      "ues:\n"
      "  - enb: 1\n"
      "    cqi: 12\n"
      "    traffic: cbr\n"
      "    rate_mbps: 3.25\n"
      "  - enb: 2\n"
      "    traffic: none\n";
  auto spec = parse_scenario(yaml);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_DOUBLE_EQ(spec->duration_s, 3.5);
  EXPECT_EQ(spec->stats_period_ttis, 2u);
  EXPECT_TRUE(spec->remote_scheduler);
  EXPECT_EQ(spec->schedule_ahead_sf, 6);
  ASSERT_EQ(spec->enbs.size(), 2u);
  EXPECT_EQ(spec->enbs[0].name, "east");
  EXPECT_EQ(spec->enbs[0].dl_scheduler, "local_pf");
  EXPECT_DOUBLE_EQ(spec->enbs[0].control_delay_ms, 7.5);
  EXPECT_EQ(spec->enbs[1].name, "enb-2");  // default name
  ASSERT_EQ(spec->ues.size(), 2u);
  EXPECT_EQ(spec->ues[0].cqi, 12);
  EXPECT_DOUBLE_EQ(spec->ues[0].rate_mbps, 3.25);
  EXPECT_EQ(spec->ues[1].traffic, "none");
}

TEST(ScenarioConfig, RejectsInvalidDocuments) {
  EXPECT_FALSE(parse_scenario("duration_s: 0\nenbs:\n  - enb_id: 1\n").ok());
  EXPECT_FALSE(parse_scenario("duration_s: 1\n").ok());  // no enbs
  EXPECT_FALSE(
      parse_scenario("enbs:\n  - enb_id: 1\nues:\n  - enb: 9\n").ok());  // unknown enb
  EXPECT_FALSE(
      parse_scenario("enbs:\n  - enb_id: 1\nues:\n  - enb: 1\n    cqi: 99\n").ok());
  EXPECT_FALSE(
      parse_scenario("enbs:\n  - enb_id: 1\nues:\n  - enb: 1\n    traffic: bogus\n").ok());
  EXPECT_FALSE(parse_scenario("enbs:\n  - enb_id: 1\nstats_period_ttis: 0\n").ok());
  EXPECT_FALSE(parse_scenario(": : :\n").ok());  // YAML garbage
}

// -------------------------------------------------------------- config run --

TEST(ScenarioConfig, RunsLocalSchedulingScenario) {
  auto spec = parse_scenario(
      "duration_s: 1.5\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "ues:\n"
      "  - enb: 1\n"
      "    cqi: 15\n"
      "    traffic: full_buffer\n"
      "  - enb: 1\n"
      "    cqi: 10\n"
      "    traffic: cbr\n"
      "    rate_mbps: 2\n");
  ASSERT_TRUE(spec.ok());
  const auto summary = run_scenario(*spec);
  ASSERT_EQ(summary.ues.size(), 2u);
  EXPECT_TRUE(summary.ues[0].connected);
  EXPECT_TRUE(summary.ues[1].connected);
  EXPECT_GT(summary.ues[0].dl_mbps, 15.0);           // full buffer at CQI 15
  EXPECT_NEAR(summary.ues[1].dl_mbps, 2.0, 0.4);     // CBR delivered
  EXPECT_EQ(summary.master_cycles, 1500);
  EXPECT_GT(summary.fleet.updates_applied, 1000u);
  EXPECT_GT(summary.uplink_signaling_mbps, 0.1);

  const auto text = format_summary(summary);
  EXPECT_NE(text.find("connected"), std::string::npos);
  EXPECT_NE(text.find("RIB updates"), std::string::npos);
}

TEST(ScenarioConfig, UplinkTrafficAndCqiTraces) {
  auto spec = parse_scenario(
      "duration_s: 2\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "ues:\n"
      "  - enb: 1\n"
      "    traffic: none\n"
      "    ul_traffic: full_buffer\n"
      "    ul_cqi: 8\n"
      "  - enb: 1\n"
      "    traffic: full_buffer\n"
      "    cqi_trace: [15, 4]\n"
      "    cqi_trace_period_ms: 500\n");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  ASSERT_EQ(spec->ues.size(), 2u);
  EXPECT_EQ(spec->ues[0].ul_traffic, "full_buffer");
  ASSERT_EQ(spec->ues[1].cqi_trace.size(), 2u);

  const auto summary = run_scenario(*spec);
  ASSERT_EQ(summary.ues.size(), 2u);
  // UE 0 pushes uplink only.
  EXPECT_GT(summary.ues[0].ul_mbps, 5.0);
  EXPECT_LT(summary.ues[0].dl_mbps, 0.1);
  // UE 1's throughput reflects the looping 15/4 trace: between the pure
  // CQI-4 (~5) and pure CQI-15 (~23) rates.
  EXPECT_GT(summary.ues[1].dl_mbps, 8.0);
  EXPECT_LT(summary.ues[1].dl_mbps, 20.0);

  EXPECT_FALSE(
      parse_scenario("enbs:\n  - enb_id: 1\nues:\n  - enb: 1\n    ul_traffic: bogus\n").ok());
  EXPECT_FALSE(
      parse_scenario("enbs:\n  - enb_id: 1\nues:\n  - enb: 1\n    cqi_trace: [99]\n").ok());
}

TEST(ScenarioConfig, RunsRemoteSchedulingScenario) {
  auto spec = parse_scenario(
      "duration_s: 1.5\n"
      "remote_scheduler: true\n"
      "schedule_ahead_sf: 4\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "    control_delay_ms: 1\n"
      "ues:\n"
      "  - enb: 1\n"
      "    cqi: 15\n"
      "    traffic: full_buffer\n");
  ASSERT_TRUE(spec.ok());
  const auto summary = run_scenario(*spec);
  ASSERT_EQ(summary.ues.size(), 1u);
  EXPECT_TRUE(summary.ues[0].connected);
  EXPECT_GT(summary.ues[0].dl_mbps, 12.0);
  // Centralized scheduling pushes commands downstream.
  EXPECT_GT(summary.downlink_signaling_mbps, 0.1);
}

TEST(ScenarioConfig, ObservabilityCollectsMetricsDumps) {
  auto spec = parse_scenario(
      "duration_s: 2\n"
      "observability: true\n"
      "metrics_period_s: 0.5\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "ues:\n"
      "  - enb: 1\n"
      "    cqi: 12\n"
      "    traffic: full_buffer\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->observability);
  EXPECT_DOUBLE_EQ(spec->metrics_period_s, 0.5);
  const auto summary = run_scenario(*spec);
  EXPECT_TRUE(summary.observability);

  // 2 s at a 0.5 s period: dumps at 0, 0.5, 1.0, 1.5 plus the end-of-run
  // dump.
  ASSERT_EQ(summary.metrics_json.size(), 5u);
  const std::string& last = summary.metrics_json.back();
  EXPECT_EQ(last.front(), '{');
  EXPECT_EQ(last.back(), '}');
  EXPECT_NE(last.find("\"t_us\":"), std::string::npos);
  EXPECT_NE(last.find("\"cycles_run\":2000"), std::string::npos) << last;
  EXPECT_NE(last.find("signaling_rx_bytes{agent=1,category=stats}"), std::string::npos);
  EXPECT_NE(last.find("agent_signaling_tx_bytes{agent=1,category=stats}"),
            std::string::npos);
  EXPECT_NE(last.find("link_frames_tx{link=0,dir=up}"), std::string::npos);
  EXPECT_NE(last.find("control_latency_us{agent=1}"), std::string::npos);

  EXPECT_NE(summary.metrics_prometheus.find("cycles_run 2000"), std::string::npos);
  EXPECT_NE(summary.metrics_block.find("metrics:"), std::string::npos);
  EXPECT_NE(summary.metrics_block.find("cycle us (mean/max)"), std::string::npos);
  const auto text = format_summary(summary);
  EXPECT_NE(text.find("metrics:"), std::string::npos);
}

TEST(ScenarioConfig, ObservabilityOffLeavesSummaryEmpty) {
  auto spec = parse_scenario(
      "duration_s: 1\n"
      "enbs:\n"
      "  - enb_id: 1\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->observability);
  const auto summary = run_scenario(*spec);
  EXPECT_FALSE(summary.observability);
  EXPECT_TRUE(summary.metrics_json.empty());
  EXPECT_TRUE(summary.metrics_prometheus.empty());
  EXPECT_TRUE(summary.metrics_block.empty());
  EXPECT_EQ(format_summary(summary).find("metrics:"), std::string::npos);
}

// ------------------------------------------------------------------ goldens --
//
// Every checked-in scenario, run at seed 1, must reproduce its pinned
// summary byte for byte. The goldens are the `flexran-sim` output with the
// one wall-clock line removed (run from the repository root):
//   flexran-sim --seed=1 scenarios/<name>.yaml | grep -v 'cycle us (mean/max)'
//     > tests/golden/<name>.txt

const std::filesystem::path kSourceDir = FLEXRAN_SOURCE_DIR;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

ScenarioRunSummary run_checked_in(const std::string& name, bool observability) {
  auto spec = parse_scenario(read_file(kSourceDir / "scenarios" / (name + ".yaml")));
  EXPECT_TRUE(spec.ok()) << name;
  if (!spec.ok()) return {};
  spec->seed = 1;
  spec->observability = spec->observability || observability;
  // The decoder anomaly count is process-wide; start each run from zero so
  // the export does not depend on what ran before in this process.
  proto::decode_anomalies().bsr_overflow.store(0);
  return run_scenario(*spec);
}

std::vector<std::string> checked_in_scenarios() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kSourceDir / "scenarios")) {
    if (entry.path().extension() == ".yaml") names.push_back(entry.path().stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ScenarioGolden, EveryCheckedInScenarioMatchesItsSummary) {
  const auto names = checked_in_scenarios();
  ASSERT_EQ(names.size(), 9u);
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    std::istringstream lines(format_summary(run_checked_in(name, false)));
    std::string stable;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("cycle us (mean/max)") == std::string::npos) stable += line + "\n";
    }
    EXPECT_EQ(stable, read_file(kSourceDir / "tests" / "golden" / (name + ".txt")));
  }
}

// The exported metric surface at seed 1: every series name, and every value
// except the wall-clock series that differ between identical runs (written
// as `*`). The goldens are `flexran-sim --seed=1 --metrics-prom=<file>`
// output, sorted bytewise, with those values masked.
bool wall_clock_series(const std::string& base) {
  const auto starts = [&base](const char* prefix) { return base.rfind(prefix, 0) == 0; };
  return base == "app_overruns" || base == "idle_fraction" ||
         base == "snapshot_publish_us_mean" || base == "updater_overruns" ||
         starts("app_wall_us_") || (starts("cycle_") && base.find("_us_") != std::string::npos);
}

std::string metric_snapshot(const std::string& prometheus_text) {
  std::vector<std::string> series;
  std::istringstream lines(prometheus_text);
  for (std::string line; std::getline(lines, line);) {
    const std::string name = line.substr(0, line.rfind(' '));
    series.push_back(wall_clock_series(name.substr(0, name.find('{'))) ? name + " *" : line);
  }
  std::sort(series.begin(), series.end());
  std::string out;
  for (const auto& entry : series) out += entry + "\n";
  return out;
}

TEST(ScenarioGolden, MetricExportMatchesItsSnapshot) {
  for (const std::string name : {"chaos_metrics", "sharded_scale"}) {
    SCOPED_TRACE(name);
    const auto summary = run_checked_in(name, true);
    EXPECT_EQ(metric_snapshot(summary.metrics_prometheus),
              read_file(kSourceDir / "tests" / "golden" / ("metrics_" + name + ".txt")));
  }
}

// Every series identity (`name{labels}`) is exported once: a histogram's
// `_count` and `_sum` lines carry their own names, and no two owners write
// the same series.
TEST(ScenarioGolden, EverySeriesIdentityIsExportedOnce) {
  for (const auto& name : checked_in_scenarios()) {
    SCOPED_TRACE(name);
    const auto summary = run_checked_in(name, true);
    std::map<std::string, int> seen;
    std::istringstream lines(summary.metrics_prometheus);
    for (std::string line; std::getline(lines, line);) ++seen[line.substr(0, line.rfind(' '))];
    EXPECT_GT(seen.size(), 100u);
    for (const auto& [identity, count] : seen) EXPECT_EQ(count, 1) << identity;
  }
}

}  // namespace
}  // namespace flexran::scenario
