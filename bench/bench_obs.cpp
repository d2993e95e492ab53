// Observability overhead (docs/observability.md): measures what the
// unified metrics layer costs, in two parts.
//
// 1. Instrument micro-costs: ns/op for a raw uint64 increment (what every
//    counter pays: owners count in place and their collectors read the
//    counters at export time only) vs Histogram::observe, plus the cost
//    of a full registry export.
//
// 2. Control-loop latency breakdown: a testbed run with obs enabled,
//    reporting where a control cycle's wall time goes (updater / events /
//    apps / flush, from the Task Manager's stage table) and the end-to-end control latency quantiles measured
//    by the Envelope timestamp echo. Emits BENCH_latency_breakdown.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace {

using namespace flexran;

using Clock = std::chrono::steady_clock;

double ns_per_op(std::uint64_t ops, Clock::time_point start, Clock::time_point end) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<double>(ns) / static_cast<double>(ops);
}

struct MicroCosts {
  double raw_inc_ns = 0.0;
  double histogram_observe_ns = 0.0;
  double registry_export_us = 0.0;
};

MicroCosts measure_micro() {
  MicroCosts costs;
  constexpr std::uint64_t kOps = 10'000'000;

  volatile std::uint64_t raw = 0;  // volatile defeats dead-store elimination
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) raw = raw + 1;
  auto t1 = Clock::now();
  costs.raw_inc_ns = ns_per_op(kOps, t0, t1);

  obs::Histogram histogram(obs::exponential_bounds(1.0, 2.0, 16));
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    histogram.observe(static_cast<double>(i & 0xFFFF));
  }
  t1 = Clock::now();
  costs.histogram_observe_ns = ns_per_op(kOps, t0, t1);

  // A registry the size of a real run: one collector writing 200 series,
  // like the scenario layer's, exported once per iteration.
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) names.push_back("bench_series_" + std::to_string(i));
  obs::MetricsRegistry registry;
  auto collector = registry.add_collector([&names](obs::Sink& out) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      out.value(names[i], {}, static_cast<double>(i));
    }
  });
  constexpr int kExports = 200;
  t0 = Clock::now();
  std::size_t bytes = 0;
  for (int i = 0; i < kExports; ++i) bytes += registry.json().size();
  t1 = Clock::now();
  costs.registry_export_us = ns_per_op(kExports, t0, t1) / 1000.0;
  if (bytes == 0) std::printf("unreachable\n");
  return costs;
}

struct Breakdown {
  std::uint64_t cycles = 0;
  double updater_us_mean = 0.0;
  double event_us_mean = 0.0;
  double apps_us_mean = 0.0;
  double flush_us_mean = 0.0;
  std::uint64_t latency_samples = 0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  std::size_t series = 0;
};

Breakdown measure_breakdown() {
  constexpr double kControlDelayMs = 2.0;
  constexpr double kDurationS = 4.0;

  ctrl::MasterConfig master_config = scenario::per_tti_master_config(/*stats_period_ttis=*/2);
  master_config.obs.enabled = true;
  // Frequent echoes keep master->agent traffic (and hence timestamp-echo
  // latency samples) dense enough for stable quantiles.
  master_config.echo_period_cycles = 100;
  scenario::Testbed testbed(std::move(master_config));

  scenario::EnbSpec spec = bench::basic_enb(1, "obs");
  spec.uplink.delay = sim::from_ms(kControlDelayMs);
  spec.downlink.delay = sim::from_ms(kControlDelayMs);
  scenario::Testbed::Enb& enb = testbed.add_enb(spec);
  const auto rnti = testbed.add_ue(0, bench::fixed_cqi_ue(15));
  bench::saturate_dl(testbed, 0, rnti);

  testbed.run_seconds(kDurationS);

  Breakdown breakdown;
  const auto& stages = testbed.master().task_manager().stages();
  breakdown.cycles = stages.updater.count();
  breakdown.updater_us_mean = stages.updater.mean();
  breakdown.event_us_mean = stages.event.mean();
  breakdown.apps_us_mean = stages.apps.mean();
  breakdown.flush_us_mean = stages.flush.mean();
  breakdown.series = testbed.master().metrics().size();
  const auto* latency = testbed.master().control_latency(enb.agent_id);
  if (latency != nullptr) {
    breakdown.latency_samples = latency->count();
    breakdown.latency_p50_us = latency->p50();
    breakdown.latency_p95_us = latency->p95();
    breakdown.latency_p99_us = latency->p99();
  }
  return breakdown;
}

}  // namespace

int main() {
  util::Logger::instance().set_level(util::LogLevel::error);

  bench::print_header("Observability overhead: instrument micro-costs");
  bench::print_note(
      "Counters pay a plain uint64 increment (collectors read them at\n"
      "export time only); histograms pay an observe.");
  const MicroCosts micro = measure_micro();
  std::printf("\n%-26s %10s\n", "operation", "ns/op");
  std::printf("%-26s %10.2f\n", "raw uint64 ++", micro.raw_inc_ns);
  std::printf("%-26s %10.2f\n", "Histogram::observe", micro.histogram_observe_ns);
  std::printf("%-26s %10.2f us (200-series registry json())\n", "registry export",
              micro.registry_export_us);

  bench::print_header("Control-loop latency breakdown (stage timing + timestamp echo)");
  bench::print_note(
      "One eNodeB, 2 ms control delay each way, stats every 2 TTIs, echo\n"
      "every 100 cycles, 4 s run. Stage means from the Task Manager's\n"
      "stage table; end-to-end latency from the Envelope timestamp echo.");
  const Breakdown breakdown = measure_breakdown();
  std::printf("\ncycles traced: %llu, registry series: %zu\n",
              static_cast<unsigned long long>(breakdown.cycles), breakdown.series);
  std::printf("stage means (us): updater %.2f, events %.2f, apps %.2f, flush %.2f\n",
              breakdown.updater_us_mean, breakdown.event_us_mean, breakdown.apps_us_mean,
              breakdown.flush_us_mean);
  std::printf("control latency (us): p50 %.0f, p95 %.0f, p99 %.0f (%llu samples)\n",
              breakdown.latency_p50_us, breakdown.latency_p95_us, breakdown.latency_p99_us,
              static_cast<unsigned long long>(breakdown.latency_samples));

  // Machine-readable result: one JSON object on the final line.
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      ",\"micro_ns_per_op\":{\"raw_inc\":%.3f,"
      "\"histogram_observe\":%.3f,\"registry_export_us\":%.3f},"
      "\"breakdown\":{\"cycles\":%llu,\"series\":%zu,\"updater_us_mean\":%.3f,"
      "\"event_us_mean\":%.3f,\"apps_us_mean\":%.3f,\"flush_us_mean\":%.3f,"
      "\"latency_samples\":%llu,\"latency_p50_us\":%.1f,\"latency_p95_us\":%.1f,"
      "\"latency_p99_us\":%.1f}}",
      micro.raw_inc_ns, micro.histogram_observe_ns,
      micro.registry_export_us, static_cast<unsigned long long>(breakdown.cycles),
      breakdown.series, breakdown.updater_us_mean, breakdown.event_us_mean,
      breakdown.apps_us_mean, breakdown.flush_us_mean,
      static_cast<unsigned long long>(breakdown.latency_samples), breakdown.latency_p50_us,
      breakdown.latency_p95_us, breakdown.latency_p99_us);
  const std::string json =
      "{" +
      bench::json_header("latency_breakdown",
                         "delay=2ms stats_period=2 echo_period=100cyc duration=4s") +
      buffer;
  std::printf("%s\n", json.c_str());
  return 0;
}
