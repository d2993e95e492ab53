// Figure 6 reproduction: overhead of the FlexRAN agent vs "vanilla OAI".
//
// 6a -- CPU and memory cost of adding the agent, idle and with a UE running
//       a speedtest. The paper measures a real eNodeB process; here we
//       measure (i) wall-clock host CPU time to simulate one second of the
//       eNodeB (master included for FlexRAN), (ii) the eNodeB's own control
//       work per TTI -- the wall time of each subframe-start callback, i.e.
//       the fused local schedulers (vanilla) or the whole agent subframe
//       (FlexRAN) -- and (iii) resident heap growth, for a data plane driven
//       by a built-in local scheduler ("vanilla") vs the same data plane
//       behind a FlexRAN agent connected to a master with per-TTI reporting.
// 6b -- downlink/uplink application throughput must be identical in both
//       configurations (agent transparency).
//
//   bench_fig6_overhead [BENCH_fig6.json]   # tables + JSON result file
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "agent/schedulers.h"
#include "bench/bench_common.h"

using namespace flexran;
using bench::fixed_cqi_ue;

namespace {

struct RunResult {
  double cpu_ms_per_sim_s = 0.0;
  double control_us_per_tti = 0.0;
  double heap_mb = 0.0;
  double dl_mbps = 0.0;
  double ul_mbps = 0.0;
};

std::size_t heap_in_use() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

/// Times every subframe-start callback of the wrapped listener and forwards
/// all callbacks to it.
class TimedListener final : public stack::EnodebDataPlane::Listener {
 public:
  explicit TimedListener(stack::EnodebDataPlane::Listener& inner) : inner_(&inner) {}
  void on_subframe_start(std::int64_t subframe) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->on_subframe_start(subframe);
    total_us_ += std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                           start)
                     .count();
    ++ttis_;
  }
  void on_rach(lte::Rnti rnti, std::int64_t sf) override { inner_->on_rach(rnti, sf); }
  void on_ue_attached(lte::Rnti rnti, std::int64_t sf) override {
    inner_->on_ue_attached(rnti, sf);
  }
  void on_ue_detached(lte::Rnti rnti, std::int64_t sf) override {
    inner_->on_ue_detached(rnti, sf);
  }
  void on_scheduling_request(lte::Rnti rnti, std::int64_t sf) override {
    inner_->on_scheduling_request(rnti, sf);
  }
  double us_per_tti() const { return ttis_ == 0 ? 0.0 : total_us_ / static_cast<double>(ttis_); }

 private:
  stack::EnodebDataPlane::Listener* inner_;
  double total_us_ = 0.0;
  std::uint64_t ttis_ = 0;
};

/// Vanilla configuration: the data plane driven directly by a local
/// scheduler (control and data planes fused, as in unmodified OAI).
RunResult run_vanilla(bool with_ue, double seconds) {
  const auto heap_before = heap_in_use();
  sim::Simulator simulator;
  lte::EnbConfig config;
  config.enb_id = 1;
  config.cells[0].cell_id = 1;
  stack::EnodebDataPlane dp(simulator, config);

  // Fused control logic: the built-in schedulers called directly.
  agent::register_builtin_vsfs();
  agent::AgentApi api(dp);
  agent::RoundRobinDlVsf dl_scheduler;
  agent::RoundRobinUlVsf ul_scheduler;

  class FusedListener : public stack::EnodebDataPlane::Listener {
   public:
    FusedListener(agent::AgentApi& api, agent::RoundRobinDlVsf& dl, agent::RoundRobinUlVsf& ul)
        : api_(&api), dl_(&dl), ul_(&ul) {}
    void on_subframe_start(std::int64_t subframe) override {
      auto decision = dl_->schedule_dl(*api_, subframe);
      auto ul_decision = ul_->schedule_ul(*api_, subframe);
      decision.ul = std::move(ul_decision.ul);
      if (!decision.empty()) (void)api_->apply_scheduling_decision(decision);
    }

   private:
    agent::AgentApi* api_;
    agent::RoundRobinDlVsf* dl_;
    agent::RoundRobinUlVsf* ul_;
  };
  FusedListener fused(api, dl_scheduler, ul_scheduler);
  TimedListener listener(fused);
  dp.set_listener(&listener);

  std::uint64_t dl_bytes = 0;
  std::uint64_t ul_bytes = 0;
  dp.set_delivery_callback([&](lte::Rnti, std::uint32_t bytes, lte::Direction dir) {
    (dir == lte::Direction::downlink ? dl_bytes : ul_bytes) += bytes;
  });

  lte::Rnti rnti = lte::kInvalidRnti;
  if (with_ue) rnti = dp.add_ue(fixed_cqi_ue(15));

  std::size_t heap_peak = heap_before;
  sim::TtiTicker ticker(simulator);
  ticker.subscribe([&](std::int64_t tti) {
    dp.subframe_begin(tti);
    if (with_ue) {
      const auto* ue = dp.ue(rnti);
      if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) dp.enqueue_dl(rnti, 3, 60'000);
      if (ue != nullptr && ue->connected() && ue->ul_buffer_bytes < 30'000) {
        dp.enqueue_ul(rnti, 30'000);
      }
    }
    dp.subframe_end(tti);
    if (tti % 100 == 0) heap_peak = std::max(heap_peak, heap_in_use());
  });
  ticker.start();

  const auto start = std::chrono::steady_clock::now();
  simulator.run_until(sim::from_seconds(seconds));
  const auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();

  RunResult result;
  result.cpu_ms_per_sim_s = elapsed / seconds;
  result.control_us_per_tti = listener.us_per_tti();
  result.heap_mb = static_cast<double>(heap_peak - heap_before) / 1e6;
  const double active = seconds - 0.1;
  result.dl_mbps = scenario::Metrics::mbps(dl_bytes, active);
  result.ul_mbps = scenario::Metrics::mbps(ul_bytes, active);
  return result;
}

/// FlexRAN configuration: same data plane behind an agent connected to a
/// master with the paper's worst-case reporting (per-TTI stats + sync).
RunResult run_flexran(bool with_ue, double seconds) {
  const auto heap_before = heap_in_use();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  testbed.add_enb(bench::basic_enb());
  auto& enb = testbed.enb(0);
  TimedListener listener(*enb.agent);
  enb.data_plane->set_listener(&listener);

  lte::Rnti rnti = lte::kInvalidRnti;
  if (with_ue) {
    rnti = testbed.add_ue(0, fixed_cqi_ue(15));
    bench::saturate_dl(testbed, 0, rnti);
    bench::saturate_ul(testbed, 0, rnti);
  }
  std::size_t heap_peak = heap_before;
  testbed.on_tti([&](std::int64_t tti) {
    if (tti % 100 == 0) heap_peak = std::max(heap_peak, heap_in_use());
  });

  const auto start = std::chrono::steady_clock::now();
  testbed.run_seconds(seconds);
  const auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();

  RunResult result;
  result.cpu_ms_per_sim_s = elapsed / seconds;
  result.control_us_per_tti = listener.us_per_tti();
  result.heap_mb = static_cast<double>(heap_peak - heap_before) / 1e6;
  const double active = seconds - 0.1;
  enb.data_plane->set_listener(enb.agent.get());
  result.dl_mbps =
      with_ue
          ? scenario::Metrics::mbps(testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink),
                                    active)
          : 0.0;
  result.ul_mbps =
      with_ue
          ? scenario::Metrics::mbps(testbed.metrics().total_bytes(1, rnti, lte::Direction::uplink),
                                    active)
          : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double kSeconds = 10.0;
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_fig6.json";

  bench::print_header("Fig. 6a -- eNodeB overhead: vanilla vs FlexRAN agent");
  bench::print_note(
      "paper: agent adds ~0.2pp CPU and ~0.03 GB memory; UE service identical.\n"
      "here: host-CPU ms per simulated second (master included for FlexRAN), the\n"
      "eNodeB's control work per TTI (local schedulers vs the agent subframe) and\n"
      "the heap delta of the eNodeB sim.");

  struct Config {
    const char* name;
    const char* key;
    RunResult result;
  };
  Config configs[] = {
      {"vanilla, no UE", "vanilla_idle", run_vanilla(false, kSeconds)},
      {"FlexRAN, no UE", "flexran_idle", run_flexran(false, kSeconds)},
      {"vanilla, UE speedtest", "vanilla_ue", run_vanilla(true, kSeconds)},
      {"FlexRAN, UE speedtest", "flexran_ue", run_flexran(true, kSeconds)},
  };
  const RunResult& vanilla_ue = configs[2].result;
  const RunResult& flexran_ue = configs[3].result;

  std::printf("\n%-26s %16s %16s %12s\n", "configuration", "cpu (ms/sim-s)",
              "control (us/TTI)", "heap (KB)");
  for (const auto& config : configs) {
    std::printf("%-26s %16.2f %16.2f %12.2f\n", config.name, config.result.cpu_ms_per_sim_s,
                config.result.control_us_per_tti, config.result.heap_mb * 1024);
  }

  bench::print_header("Fig. 6b -- UE throughput: vanilla vs FlexRAN (transparency)");
  bench::print_note("paper: DL ~23-25 Mb/s, UL ~8-9 Mb/s, identical across configurations.");
  std::printf("\n%-26s %12s %12s\n", "configuration", "DL (Mb/s)", "UL (Mb/s)");
  std::printf("%-26s %12.2f %12.2f\n", "vanilla OAI (sim)", vanilla_ue.dl_mbps,
              vanilla_ue.ul_mbps);
  std::printf("%-26s %12.2f %12.2f\n", "OAI + FlexRAN (sim)", flexran_ue.dl_mbps,
              flexran_ue.ul_mbps);
  const double dl_delta =
      100.0 * (vanilla_ue.dl_mbps - flexran_ue.dl_mbps) / vanilla_ue.dl_mbps;
  const double ul_delta =
      100.0 * (vanilla_ue.ul_mbps - flexran_ue.ul_mbps) / vanilla_ue.ul_mbps;
  std::printf("\nDL delta: %.2f%% (the agent is transparent to the UE)\n", dl_delta);

  std::string json = "{";
  json += bench::json_header("fig6_overhead", "seconds=10 cqi=15 enbs=1");
  json += ",\"fig6a\":{";
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    const RunResult& r = configs[i].result;
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\":{\"cpu_ms_per_sim_s\":%.3f,\"control_us_per_tti\":%.3f,"
                  "\"heap_kb\":%.2f}",
                  i == 0 ? "" : ",", configs[i].key, r.cpu_ms_per_sim_s, r.control_us_per_tti,
                  r.heap_mb * 1024);
    json += row;
  }
  char fig6b[256];
  std::snprintf(fig6b, sizeof(fig6b),
                "},\"fig6b\":{\"vanilla_dl_mbps\":%.2f,\"vanilla_ul_mbps\":%.2f,"
                "\"flexran_dl_mbps\":%.2f,\"flexran_ul_mbps\":%.2f,"
                "\"dl_delta_pct\":%.2f,\"ul_delta_pct\":%.2f}}",
                vanilla_ue.dl_mbps, vanilla_ue.ul_mbps, flexran_ue.dl_mbps, flexran_ue.ul_mbps,
                dl_delta, ul_delta);
  json += fig6b;
  std::ofstream(json_path) << json << "\n";
  std::printf("\n%s\nJSON written to %s\n", json.c_str(), json_path.c_str());
  return 0;
}
