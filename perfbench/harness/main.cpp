// Control-loop benchmark: drives the real agent, stack, net, proto,
// controller, apps and obs code in one single-threaded process and
// measures the whole loop per simulated TTI on the thread CPU clock.
//
//   perfbench --workload <central_sched|fleet_sparse|fleet_dense>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer seam for a fixed number of TTIs and prints the per-layer
// metrics, a self-time table and a Chrome trace. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when a correctness check fails.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "host_speed.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Kind;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// Shortest decimal that round-trips: every digit as measured.
std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// `<name>.p50`, `<name>.p99` and `<name>.n` of `samples`.
  template <typename T>
  void distribution(const std::string& name, std::vector<T> samples, const std::string& unit,
                    double scale = 1.0) {
    const auto n = static_cast<double>(samples.size());
    add(name + ".p50", perfbench::percentile(samples, 0.50) * scale, unit);
    add(name + ".p99", perfbench::percentile(samples, 0.99) * scale, unit);
    add(name + ".n", n, "count");
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// `{"<name>": {"value": v, "unit": "u"}, ...}`
std::string metrics_json(const Report& report) {
  std::string json = "{";
  for (const auto& m : report.metrics()) {
    json += json.size() > 1 ? ", " : "";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  return json + "}";
}

template <typename T>
double mean(const std::vector<T>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const T v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

/// Host-speed samples (host_speed.h) are taken between TTIs every
/// kSamplePeriodNs of wall clock. Each run of kSamplesPerWindow consecutive
/// samples opens a window; the TTIs measured in a window are scaled by the
/// factor its samples give (a short last window joins the one before).
constexpr std::int64_t kSamplePeriodNs = 50'000'000;
constexpr std::size_t kSamplesPerWindow = 10;
/// TTIs per block of the traced run's alternating traced / untraced blocks.
constexpr int kOverheadBlock = 50;

struct HostSamples {
  std::vector<std::int64_t> ns;      ///< kernel CPU time
  std::vector<std::size_t> at;       ///< TTIs recorded before the sample
  std::vector<std::size_t> stepped;  ///< TTIs run before the sample, recorded or not
  std::vector<std::int64_t> start;   ///< wall clock when the sample began
  std::vector<std::int64_t> end;     ///< wall clock when it returned
};

struct Normalized {
  double tti_p50_us = 0.0;
  double tti_p99_us = 0.0;
  double cycle_p50_us = 0.0;
  double cycle_p99_us = 0.0;
  double ttis_per_s = 0.0;
  double raw_ttis_per_s = 0.0;
  double mean_factor = 0.0;
  std::size_t windows = 0;
};

/// One Coordinator cycle runs per TTI, so `cycle_ns` lines up with `tti_ns`.
Normalized normalize(const std::vector<std::uint32_t>& tti_ns,
                     const std::vector<std::uint32_t>& cycle_ns, const HostSamples& host,
                     std::size_t stepped, std::int64_t wall_end) {
  Normalized out;
  if (cycle_ns.size() != tti_ns.size()) return out;  // reported as a failed check
  std::vector<std::size_t> first{0};  // first sample of each window
  for (std::size_t i = kSamplesPerWindow; i + kSamplesPerWindow <= host.ns.size();
       i += kSamplesPerWindow) {
    first.push_back(i);
  }
  out.windows = first.size();
  std::vector<double> tti;
  std::vector<double> cycle;
  tti.reserve(tti_ns.size());
  cycle.reserve(cycle_ns.size());
  double ttis = 0.0;
  double raw_wall = 0.0;
  double scaled_wall = 0.0;
  for (std::size_t w = 0; w < first.size(); ++w) {
    const std::size_t last = w + 1 < first.size() ? first[w + 1] : host.ns.size();
    const double factor = perfbench::speed_factor(
        {host.ns.begin() + static_cast<std::ptrdiff_t>(first[w]),
         host.ns.begin() + static_cast<std::ptrdiff_t>(last)});
    const std::size_t begin = host.at[first[w]];
    const std::size_t end = w + 1 < first.size() ? host.at[first[w + 1]] : tti_ns.size();
    for (std::size_t i = begin; i < end; ++i) {
      tti.push_back(tti_ns[i] * factor);
      cycle.push_back(cycle_ns[i] * factor);
    }
    // Wall clock of the window without the time spent sampling the host.
    double wall = static_cast<double>((w + 1 < first.size() ? host.start[last] : wall_end) -
                                      host.end[first[w]]);
    for (std::size_t k = first[w] + 1; k < last; ++k) {
      wall -= static_cast<double>(host.end[k] - host.start[k]);
    }
    ttis += static_cast<double>((w + 1 < first.size() ? host.stepped[last] : stepped) -
                                host.stepped[first[w]]);
    raw_wall += wall;
    scaled_wall += wall * factor;
    out.mean_factor += factor / static_cast<double>(first.size());
  }
  out.tti_p50_us = perfbench::percentile(tti, 0.50) / 1e3;
  out.tti_p99_us = perfbench::percentile(tti, 0.99) / 1e3;
  out.cycle_p50_us = perfbench::percentile(cycle, 0.50) / 1e3;
  out.cycle_p99_us = perfbench::percentile(cycle, 0.99) / 1e3;
  out.ttis_per_s = scaled_wall > 0 ? ttis / (scaled_wall / 1e9) : 0.0;
  out.raw_ttis_per_s = raw_wall > 0 ? ttis / (raw_wall / 1e9) : 0.0;
  return out;
}

/// VmHWM: this process image's peak resident set. getrusage's ru_maxrss
/// would also carry the peak of the parent that exec'd the benchmark.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.workload != "central_sched" && args.workload != "fleet_sparse" &&
      args.workload != "fleet_dense") {
    usage(("unknown workload " + args.workload).c_str());
  }
  const perfbench::WorkloadPlan plan = perfbench::plan_for(args.workload);
  perfbench::HostSpeed host_speed;
  auto& tracer = perfbench::tracer();

  // ---- set-up: build the world several times, report the median ----------
  std::unique_ptr<perfbench::World> world;
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  const int repeats = args.trace ? 1 : plan.setup_repeats;
  for (int k = 0; k < repeats; ++k) {
    world.reset();
    std::vector<std::int64_t> host;
    for (int i = 0; i < 3; ++i) host.push_back(host_speed.sample());
    const std::int64_t start = perfbench::cpu_ns();
    world = perfbench::make_world(args.workload, args.seed);
    int ttis = 0;
    while (!world->ready()) {
      world->step();
      if (++ttis > 5000) {
        std::fprintf(stderr, "perfbench: set-up did not converge in %d TTIs\n", ttis);
        return 1;
      }
    }
    const double raw = static_cast<double>(perfbench::cpu_ns() - start) / 1e9;
    for (int i = 0; i < 3; ++i) host.push_back(host_speed.sample());
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw * perfbench::speed_factor(host));
  }
  world->on_ready();

  std::vector<double> scrape_ms;
  std::size_t scrape_bytes = 0;
  // One TTI, then the metrics scrape when it is due. The scrape runs between
  // TTIs on the simulated schedule: it counts in wall-clock throughput, not
  // in any TTI's CPU time or allocations.
  auto step = [&](bool traced) -> std::int64_t {
    std::int64_t ns = 0;
    if (traced) {
      tracer.begin_tti(world->tti() + 1);
      world->step();
      ns = tracer.end_tti();
    } else {
      const std::int64_t start = perfbench::cpu_ns();
      world->step();
      ns = perfbench::cpu_ns() - start;
    }
    return ns;
  };
  auto scrape_if_due = [&] {
    if (plan.scrape_period_ttis == 0 ||
        world->tti() % plan.scrape_period_ttis != plan.scrape_period_ttis / 2) {
      return;
    }
    const std::int64_t start = perfbench::cpu_ns();
    const std::string text = world->scrape();
    const std::int64_t end = perfbench::cpu_ns();
    perfbench::AllocPause pause;
    scrape_ms.push_back(static_cast<double>(end - start) / 1e6);
    scrape_bytes = text.size();
  };

  for (int i = 0; i < plan.warmup_ttis; ++i) {
    step(false);
    scrape_if_due();
  }

  Report report;
  // Samples are stored as 32-bit nanoseconds in a buffer reserved up front,
  // so the benchmark's own bookkeeping adds little and steady memory.
  const auto capacity = static_cast<std::size_t>(args.seconds * 20'000);
  std::vector<std::uint32_t> tti_ns;
  tti_ns.reserve(capacity);
  Normalized normalized;
  double peak_rss = 0.0;

  if (!args.trace) {
    world->cycle_ns.reserve(capacity);
    world->record_cycles = true;
    HostSamples host;
    std::size_t stepped = 0;
    auto sample_host = [&] {
      const std::int64_t start = perfbench::wall_ns();
      const std::int64_t ns = host_speed.sample();
      perfbench::AllocPause pause;
      host.ns.push_back(ns);
      host.at.push_back(tti_ns.size());
      host.stepped.push_back(stepped);
      host.start.push_back(start);
      host.end.push_back(perfbench::wall_ns());
    };
    sample_host();
    const auto wall_budget = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t wall_start = host.start.front();
    std::int64_t wall_end = wall_start;
    bool after_sample = false;
    while (wall_end - wall_start < wall_budget) {
      const std::int64_t ns = step(false);
      scrape_if_due();
      ++stepped;
      {
        perfbench::AllocPause pause;
        // The TTI right after a host-speed sample starts with caches the
        // helper's kernel has churned; it is not counted.
        if (after_sample) {
          world->cycle_ns.pop_back();
        } else {
          tti_ns.push_back(static_cast<std::uint32_t>(ns));
        }
      }
      after_sample = false;
      wall_end = perfbench::wall_ns();
      if (wall_end - host.end.back() >= kSamplePeriodNs) {
        sample_host();
        after_sample = true;
      }
    }
    world->record_cycles = false;
    // Read before the analysis below allocates its working copies.
    peak_rss = peak_rss_mb();
    normalized = normalize(tti_ns, world->cycle_ns, host, stepped, wall_end);
  } else {
    // A fixed window right after warm-up, so every count repeats exactly at
    // a fixed seed. Blocks of traced and untraced TTIs alternate, so the
    // tracing overhead compares TTIs run under the same host conditions.
    const auto& wire = perfbench::wire();
    const perfbench::Wire wire_before = wire;
    const std::uint64_t events_before = world->events();
    const std::uint64_t commands_before = world->commands();
    const int window_ttis = 2 * plan.trace_ttis;
    std::vector<std::uint32_t> tti_allocs;
    tti_allocs.reserve(static_cast<std::size_t>(window_ttis));
    tracer.start(50);
    for (int i = 0; i < window_ttis; ++i) {
      const bool traced = (i / kOverheadBlock) % 2 == 0;
      if (traced) {
        tracer.resume();
      } else {
        tracer.stop();
      }
      const std::uint64_t allocs_before = perfbench::allocs();
      const std::int64_t ns = step(traced);
      const std::uint64_t allocs_after = perfbench::allocs();
      {
        perfbench::AllocPause pause;
        tti_allocs.push_back(static_cast<std::uint32_t>(allocs_after - allocs_before));
        if (!traced) tti_ns.push_back(static_cast<std::uint32_t>(ns));
      }
      scrape_if_due();
    }
    tracer.stop();
    const double ttis = window_ttis;
    const auto traced_ttis = static_cast<double>(tracer.tti_ns().size());
    const std::uint64_t events = world->events() - events_before;
    const std::uint64_t commands = world->commands() - commands_before;
    auto samples = [&](Kind kind) { return tracer.samples(kind); };
    const auto& cycles = world->cycle_trace;
    const auto& coordinator = world->coordinator();

    report.distribution("controller.rx_us", samples(Kind::controller_rx).self_us, "us");
    report.add("controller.rx_allocs", mean(samples(Kind::controller_rx).total_allocs), "count");
    report.distribution("controller.updater_us", cycles.updater_us, "us");
    report.add("controller.updates_per_cycle", mean(cycles.updates), "count");
    report.distribution("controller.publish_us", cycles.publish_us, "us");
    report.distribution("controller.compose_us", samples(Kind::compose).self_us, "us");
    report.add("controller.cycle_allocs", mean(cycles.allocs), "count");
    report.add("controller.ingest_peak_msgs",
               static_cast<double>(coordinator.pending_peak_messages()), "count");
    std::size_t rib_bytes = 0;
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      rib_bytes += coordinator.shard(s).rib_bytes();
    }
    report.add("controller.rib_bytes", static_cast<double>(rib_bytes), "B");
    report.distribution("apps.remote_scheduler_us", samples(Kind::app_remote_scheduler).self_us,
                        "us");
    report.distribution("apps.monitoring_us", samples(Kind::app_monitoring).self_us, "us");
    report.distribution("apps.global_us", samples(Kind::app_global).self_us, "us");
    report.add("apps.commands_per_cycle", static_cast<double>(commands) / ttis, "count");
    report.distribution("agent.subframe_us", samples(Kind::agent_subframe).self_us, "us");
    report.add("agent.allocs_per_subframe", mean(samples(Kind::agent_subframe).total_allocs),
               "count");
    report.distribution("agent.rx_us", samples(Kind::agent_rx).self_us, "us");
    report.add("agent.missed_deadline", static_cast<double>(world->missed_deadline()), "count");
    report.distribution("stack.subframe_us", samples(Kind::stack_subframe).self_us, "us");
    report.add("stack.allocs_per_subframe", mean(samples(Kind::stack_subframe).self_allocs),
               "count");
    report.distribution("net.send_us", samples(Kind::net_send).self_us, "us");
    auto per_tti = [&](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before) / ttis;
    };
    report.add("net.up_msgs_per_tti", per_tti(wire.up_sent.msgs, wire_before.up_sent.msgs),
               "count");
    report.add("net.up_bytes_per_tti", per_tti(wire.up_sent.bytes, wire_before.up_sent.bytes),
               "B");
    report.add("net.down_msgs_per_tti",
               per_tti(wire.down_sent.msgs, wire_before.down_sent.msgs), "count");
    report.add("net.down_bytes_per_tti",
               per_tti(wire.down_sent.bytes, wire_before.down_sent.bytes), "B");
    report.add("sim.events_per_tti", static_cast<double>(events) / ttis, "count");
    report.distribution("sim.self_us", tracer.tti_sim_self_ns(), "us", 1e-3);
    report.distribution("obs.scrape_ms", scrape_ms, "ms");
    report.add("obs.instruments", static_cast<double>(coordinator.metrics().size()), "count");
    report.add("process.allocs_per_tti", mean(tti_allocs), "count");

    // Self-time table: one row per layer; the rows sum to the traced TTI time.
    const auto& layer_ns = tracer.layer_self_ns();
    double total_ns = 0.0;
    for (const std::int64_t ns : tracer.tti_ns()) total_ns += static_cast<double>(ns);
    double rows_ns = 0.0;
    std::fprintf(stderr, "\nself time per TTI, %s (%.0f traced TTIs)\n", args.workload.c_str(),
                 traced_ttis);
    std::fprintf(stderr, "  %-12s %12s %8s\n", "layer", "us/TTI", "share");
    for (std::size_t l = 0; l < layer_ns.size(); ++l) {
      const auto layer = static_cast<perfbench::Layer>(l);
      const double per_tti_us = static_cast<double>(layer_ns[l]) / traced_ttis / 1e3;
      rows_ns += static_cast<double>(layer_ns[l]);
      report.add(std::string("self.") + perfbench::to_string(layer) + "_us", per_tti_us, "us");
      std::fprintf(stderr, "  %-12s %12.3f %7.1f%%\n", perfbench::to_string(layer), per_tti_us,
                   total_ns > 0 ? 100.0 * static_cast<double>(layer_ns[l]) / total_ns : 0.0);
    }
    std::fprintf(stderr, "  %-12s %12.3f (traced TTI mean %.3f)\n", "sum",
                 rows_ns / traced_ttis / 1e3, total_ns / traced_ttis / 1e3);
    const std::string trace_path = args.out + "/trace_" + args.workload + ".json";
    if (tracer.write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "chrome trace: %s\n", trace_path.c_str());
    }

    std::vector<std::int64_t> traced = tracer.tti_ns();
    const double traced_p50 = perfbench::percentile(traced, 0.50);
    const double untraced_p50 = perfbench::percentile(tti_ns, 0.50);
    report.add("trace.overhead_ratio", untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0, "ratio");
    std::fprintf(stderr, "tracing overhead: traced tti p50 %.3f us / untraced %.3f us\n",
                 traced_p50 / 1e3, untraced_p50 / 1e3);
  }

  // ---- drain: stop issuing, let what is in flight settle, check -----------
  world->begin_drain();
  for (int i = 0; i < 32; ++i) {
    step(false);
    scrape_if_due();
  }
  std::vector<std::string> failures;
  world->check(failures);
  if (!args.trace && normalized.windows == 0) {
    failures.push_back(std::to_string(world->cycle_ns.size()) + " cycles for " +
                       std::to_string(tti_ns.size()) + " TTIs");
  }
  if (plan.scrape_period_ttis > 0 && (scrape_ms.empty() || scrape_bytes == 0)) {
    failures.push_back("no metrics scrape rendered");
  }
  const perfbench::Ops ops = world->ops();
  if (ops.attempted == 0) failures.push_back("no operations attempted");

  const double ops_ok_ratio =
      ops.attempted > 0 ? static_cast<double>(ops.attempted - ops.failed) /
                              static_cast<double>(ops.attempted)
                        : 0.0;
  // The traced run's window is fixed, so its ratio must repeat exactly.
  if (args.trace) report.add("process.ops_ok_ratio", ops_ok_ratio, "ratio");

  if (!args.trace) {
    std::vector<double> setup = setup_s;
    report.add("tti_cpu_us_p50", normalized.tti_p50_us, "us");
    report.add("tti_cpu_us_p99", normalized.tti_p99_us, "us");
    report.add("cycle_cpu_us_p50", normalized.cycle_p50_us, "us");
    report.add("cycle_cpu_us_p99", normalized.cycle_p99_us, "us");
    report.add("ttis_per_s", normalized.ttis_per_s, "1/s");
    report.add("ops_ok_ratio", ops_ok_ratio, "ratio");
    report.add("setup_s", perfbench::percentile(setup, 0.50), "s");
    report.add("peak_rss_mb", peak_rss, "MB");

    // The same figures before host-speed normalization, for comparison.
    Report raw;
    std::vector<std::uint32_t> raw_tti = tti_ns;
    std::vector<std::uint32_t> raw_cycle = world->cycle_ns;
    raw.add("tti_cpu_us_p50", perfbench::percentile(raw_tti, 0.50) / 1e3, "us");
    raw.add("tti_cpu_us_p99", perfbench::percentile(raw_tti, 0.99) / 1e3, "us");
    raw.add("cycle_cpu_us_p50", perfbench::percentile(raw_cycle, 0.50) / 1e3, "us");
    raw.add("cycle_cpu_us_p99", perfbench::percentile(raw_cycle, 0.99) / 1e3, "us");
    raw.add("ttis_per_s", normalized.raw_ttis_per_s, "1/s");
    raw.add("setup_s", perfbench::percentile(setup_raw_s, 0.50), "s");
    raw.add("speed_factor", normalized.mean_factor, "ratio");
    std::fprintf(stderr, "%s seed %llu: %zu TTIs in %zu host-speed windows\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed), tti_ns.size(),
                 normalized.windows);
    std::fprintf(stderr, "unnormalized: %s\n", metrics_json(raw).c_str());
  }

  for (const auto& failure : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  std::fprintf(stderr, "ops: %llu attempted, %llu failed\n",
               static_cast<unsigned long long>(ops.attempted),
               static_cast<unsigned long long>(ops.failed));
  for (const auto& m : report.metrics()) {
    std::fprintf(stderr, "  %-34s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                 m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": " + metrics_json(report) + "}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
