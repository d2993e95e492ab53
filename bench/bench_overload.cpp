// Overload degradation curve (docs/overload_protection.md): sweeps the
// offered statistics-report rate past the master's bounded ingest budget
// and measures what degrades. The graceful-degradation contract is that
// periodic statistics give way first (shed + throttled, RIB staleness
// rises) while the command/session path stays flat: the echo RTT -- echo
// is session-class traffic that is never shed -- must not move with the
// flood, and staleness must recover once the flood clears. Emits the
// results as JSON (one object on the last line) for scripted consumption.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "agent/reports.h"
#include "bench/bench_common.h"
#include "util/logging.h"

namespace {

using namespace flexran;

constexpr std::uint64_t kIngestMaxMessages = 32;
constexpr std::uint64_t kIngestMaxBytes = 16384;
constexpr std::uint32_t kFloodRequestIdBase = 0xF1000000u;

struct OverloadRun {
  int flood_regs = 0;
  double offered_msgs_per_s = 0.0;
  double delivered_msgs_per_s = 0.0;
  std::uint64_t ingest_shed = 0;
  std::uint64_t ingest_coalesced = 0;
  double shed_ratio = 0.0;
  std::uint64_t peak_queue_messages = 0;
  std::uint64_t peak_queue_bytes = 0;
  double staleness_mean_ttis = 0.0;
  std::int64_t staleness_max_ttis = 0;
  double staleness_post_ttis = 0.0;
  double rtt_mean_us = 0.0;
  std::uint64_t overload_transitions = 0;
  const char* final_state = "normal";
};

OverloadRun measure(int flood_regs) {
  constexpr double kWarmupS = 0.5;
  constexpr double kFloodS = 2.0;
  constexpr double kRecoveryS = 1.0;

  ctrl::MasterConfig master_config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  master_config.overload.ingest.max_messages = kIngestMaxMessages;
  master_config.overload.ingest.max_bytes = kIngestMaxBytes;
  // Frequent echoes give a dense command-latency sample during the flood.
  master_config.echo_period_cycles = 20;
  scenario::Testbed testbed(std::move(master_config));

  scenario::EnbSpec spec = bench::basic_enb(1, "overload");
  spec.uplink.delay = sim::from_ms(2.0);
  spec.downlink.delay = sim::from_ms(2.0);
  scenario::Testbed::Enb& enb = testbed.add_enb(spec);
  const ctrl::AgentId agent_id = enb.agent_id;

  const auto rnti = testbed.add_ue(0, bench::fixed_cqi_ue(15));
  bench::saturate_dl(testbed, 0, rnti);

  struct Probe {
    bool armed = false;
    std::int64_t samples = 0;
    double staleness_sum = 0.0;
    std::int64_t staleness_max = 0;
    double rtt_sum = 0.0;
    std::int64_t rtt_samples = 0;
  } probe;
  testbed.on_tti([&](std::int64_t tti) {
    if (!probe.armed) return;
    const auto* node = testbed.master().rib().find_agent(agent_id);
    if (node == nullptr) return;
    const std::int64_t staleness = std::max<std::int64_t>(0, tti - node->last_subframe);
    ++probe.samples;
    probe.staleness_sum += static_cast<double>(staleness);
    probe.staleness_max = std::max(probe.staleness_max, staleness);
    if (node->rtt_estimate_us > 0) {
      probe.rtt_sum += node->rtt_estimate_us;
      ++probe.rtt_samples;
    }
  });

  testbed.run_seconds(kWarmupS);

  OverloadRun run;
  run.flood_regs = flood_regs;

  // The flood: rogue every-TTI full-flag registrations straight at the
  // agent's ReportsManager, same mechanism as the report_flood fault.
  const std::int64_t now_sf = enb.agent->api().current_subframe();
  for (int i = 0; i < flood_regs; ++i) {
    proto::StatsRequest request;
    request.request_id = kFloodRequestIdBase + static_cast<std::uint32_t>(i);
    request.mode = proto::ReportMode::periodic;
    request.periodicity_ttis = 1;
    request.flags = proto::stats_flags::kAll;
    enb.agent->reports().register_request(request, now_sf);
  }

  const std::uint64_t tx_before = enb.agent_side->messages_sent();
  const std::uint64_t rx_before = enb.master_side->messages_received();
  const std::uint64_t shed_before = testbed.master().stats().ingest_shed();
  const std::uint64_t coalesced_before = testbed.master().stats().ingest_coalesced();
  probe.armed = true;
  testbed.run_seconds(kFloodS);
  probe.armed = false;

  run.offered_msgs_per_s = (enb.agent_side->messages_sent() - tx_before) / kFloodS;
  run.delivered_msgs_per_s = (enb.master_side->messages_received() - rx_before) / kFloodS;
  run.ingest_shed = testbed.master().stats().ingest_shed() - shed_before;
  run.ingest_coalesced = testbed.master().stats().ingest_coalesced() - coalesced_before;
  const double arrived = run.delivered_msgs_per_s * kFloodS;
  run.shed_ratio = arrived > 0 ? static_cast<double>(run.ingest_shed) / arrived : 0.0;
  run.peak_queue_messages = testbed.master().stats().ingest_peak_messages;
  run.peak_queue_bytes = testbed.master().stats().ingest_peak_bytes;
  run.staleness_mean_ttis =
      probe.samples > 0 ? probe.staleness_sum / static_cast<double>(probe.samples) : 0.0;
  run.staleness_max_ttis = probe.staleness_max;
  run.rtt_mean_us =
      probe.rtt_samples > 0 ? probe.rtt_sum / static_cast<double>(probe.rtt_samples) : 0.0;

  // Clear the flood and verify staleness recovers.
  for (int i = 0; i < flood_regs; ++i) {
    enb.agent->reports().cancel_request(kFloodRequestIdBase + static_cast<std::uint32_t>(i));
  }
  Probe recovery;
  probe = recovery;
  probe.armed = true;
  testbed.run_seconds(kRecoveryS);
  run.staleness_post_ttis =
      probe.samples > 0 ? probe.staleness_sum / static_cast<double>(probe.samples) : 0.0;
  run.overload_transitions = testbed.master().stats().overload_transitions;
  run.final_state = ctrl::to_string(testbed.master().overload_state());
  return run;
}

}  // namespace

int main() {
  flexran::util::Logger::instance().set_level(flexran::util::LogLevel::error);
  bench::print_header("Overload degradation: offered report rate vs what gives way");
  bench::print_note(
      "bounded master ingest (32 msgs / 16 KiB); a flood of rogue every-TTI\n"
      "full-flag reports is shed + throttled while the command path (echo\n"
      "RTT, session class) must stay flat and staleness must recover.");
  std::printf("\n%6s %12s %12s %8s %7s %10s %10s %10s %10s %8s\n", "flood",
              "offered/s", "delivered/s", "shed", "ratio", "stale avg", "stale max",
              "stale post", "RTT (us)", "state");

  std::vector<OverloadRun> runs;
  for (int flood_regs : {0, 10, 20, 40, 80}) {
    OverloadRun run = measure(flood_regs);
    std::printf("%6d %12.0f %12.0f %8llu %7.3f %10.2f %10lld %10.2f %10.1f %8s\n",
                run.flood_regs, run.offered_msgs_per_s, run.delivered_msgs_per_s,
                static_cast<unsigned long long>(run.ingest_shed), run.shed_ratio,
                run.staleness_mean_ttis, static_cast<long long>(run.staleness_max_ttis),
                run.staleness_post_ttis, run.rtt_mean_us, run.final_state);
    runs.push_back(run);
  }

  // Machine-readable result: one JSON object on the final line.
  std::string json = "{";
  json += bench::json_header("overload_degradation",
                             "ingest=32msg/16KiB stats_period=2 flood=2s echo_period=20cyc");
  json += ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const OverloadRun& run = runs[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"flood_regs\":%d,\"offered_msgs_per_s\":%.0f,"
                  "\"delivered_msgs_per_s\":%.0f,\"ingest_shed\":%llu,"
                  "\"ingest_coalesced\":%llu,\"shed_ratio\":%.4f,"
                  "\"peak_queue_messages\":%llu,\"peak_queue_bytes\":%llu,"
                  "\"staleness_mean_ttis\":%.3f,\"staleness_max_ttis\":%lld,"
                  "\"staleness_post_ttis\":%.3f,\"rtt_mean_us\":%.2f,"
                  "\"overload_transitions\":%llu,\"final_state\":\"%s\"}",
                  i == 0 ? "" : ",", run.flood_regs, run.offered_msgs_per_s,
                  run.delivered_msgs_per_s, static_cast<unsigned long long>(run.ingest_shed),
                  static_cast<unsigned long long>(run.ingest_coalesced), run.shed_ratio,
                  static_cast<unsigned long long>(run.peak_queue_messages),
                  static_cast<unsigned long long>(run.peak_queue_bytes),
                  run.staleness_mean_ttis, static_cast<long long>(run.staleness_max_ttis),
                  run.staleness_post_ttis, run.rtt_mean_us,
                  static_cast<unsigned long long>(run.overload_transitions), run.final_state);
    json += buffer;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}
