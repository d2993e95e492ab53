// Licensed Shared Access example (paper Sec. 7.1): an LSA controller app
// on the master follows the incumbent's activity calendar. While the
// incumbent holds the shared band, it restricts the eNodeB's downlink to
// the lower PRBs through CarrierRestriction commands, and restores the full
// carrier once the window closes. A saturated UE shows the effect.
//
//   ./examples/lsa
#include <cstdio>

#include "apps/lsa.h"
#include "scenario/testbed.h"

using namespace flexran;

int main() {
  scenario::Testbed testbed(scenario::per_tti_master_config());

  // One 10 MHz (50 PRB) eNodeB whose upper band is shared with an incumbent.
  scenario::EnbSpec spec;
  spec.enb.enb_id = 1;
  spec.enb.cells[0].cell_id = 1;
  spec.agent.name = "enb-lsa";
  auto& enb = testbed.add_enb(spec);

  // The incumbent is active during [2 s, 4 s) and leaves the MNO 20 PRBs.
  apps::LsaConfig lsa;
  lsa.restricted_prbs = 20;
  lsa.incumbent_windows = {{2.0, 4.0}};
  auto* app = static_cast<apps::LsaControllerApp*>(
      testbed.master().add_app(std::make_unique<apps::LsaControllerApp>(lsa)));

  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(15);
  const auto rnti = testbed.add_ue(0, std::move(profile));
  testbed.on_tti([&](std::int64_t) {
    const auto* ue = enb.data_plane->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
      (void)testbed.epc().downlink(rnti, 60'000);
    }
  });

  std::printf("incumbent window [%.1f s, %.1f s), %d of %d PRBs left to the MNO\n\n",
              lsa.incumbent_windows[0].start_seconds, lsa.incumbent_windows[0].end_seconds,
              lsa.restricted_prbs, enb.data_plane->effective_dl_prbs());
  std::printf("%-8s %14s %12s %10s\n", "phase", "window (s)", "usable PRBs", "UE Mb/s");

  // Each phase skips its first `settle_s`, so the commands have crossed the
  // link (and the UE has attached) before the PRBs are read and throughput
  // is measured.
  auto phase = [&](const char* label, double settle_s, double measure_s) {
    testbed.run_seconds(settle_s);
    const double from = sim::to_seconds(testbed.sim().now());
    const int usable_prbs = enb.data_plane->effective_dl_prbs();
    const auto before = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
    testbed.run_seconds(measure_s);
    const auto after = testbed.metrics().total_bytes(1, rnti, lte::Direction::downlink);
    std::printf("%-8s %6.1f - %5.1f %12d %10.2f\n", label, from, from + measure_s, usable_prbs,
                scenario::Metrics::mbps(after - before, measure_s));
  };
  phase("before", 0.5, 1.5);
  phase("during", 0.2, 1.8);
  phase("after", 0.2, 1.8);

  std::printf("\n%llu carrier restrictions sent; incumbent active at the end: %s\n",
              static_cast<unsigned long long>(app->restrictions_sent()),
              app->incumbent_active() ? "yes" : "no");
  return 0;
}
