#include "scenario/eicic_scenario.h"

#include "scenario/testbed.h"
#include "traffic/udp.h"

namespace flexran::scenario {

EicicScenarioResult run_eicic_scenario(const EicicScenarioConfig& config) {
  apps::register_usecase_vsfs();
  Testbed testbed(per_tti_master_config());

  // Macro first: it ticks before the pico each TTI, so the pico's CQI
  // samples see the macro's current-subframe activity.
  EnbSpec macro_spec;
  macro_spec.enb.enb_id = 1;
  macro_spec.enb.cells[0].cell_id = 1;
  macro_spec.agent.name = "macro";
  macro_spec.use_radio_env = true;
  macro_spec.seed = config.seed;
  auto& macro = testbed.add_enb(macro_spec);

  EnbSpec pico_spec;
  pico_spec.enb.enb_id = 2;
  pico_spec.enb.cells[0].cell_id = 2;
  pico_spec.agent.name = "pico";
  pico_spec.use_radio_env = true;
  pico_spec.seed = config.seed + 17;
  auto& pico = testbed.add_enb(pico_spec);

  // Geometry: macro UEs inside the pico's interference footprint; the pico
  // UE in the range-expansion zone, dominated by the macro unless it mutes.
  std::vector<lte::Rnti> macro_ues;
  for (int i = 0; i < 3; ++i) {
    stack::UeProfile ue;
    ue.radio_profile = phy::UeRadioProfile::from_distances(
        1, phy::kMacroTxPowerDbm, 0.30 + 0.02 * i, {{2, {phy::kPicoTxPowerDbm, 0.10}}});
    ue.attach_after_ttis = 10 + i;
    macro_ues.push_back(testbed.add_ue(0, std::move(ue)));
  }
  stack::UeProfile pico_ue_profile;
  pico_ue_profile.radio_profile = phy::UeRadioProfile::from_distances(
      2, phy::kPicoTxPowerDbm, 0.12, {{1, {phy::kMacroTxPowerDbm, 0.20}}});
  pico_ue_profile.attach_after_ttis = 10;
  const lte::Rnti pico_ue = testbed.add_ue(1, std::move(pico_ue_profile));

  if (config.mode != apps::EicicMode::uncoordinated) {
    apps::EicicConfig eicic;
    eicic.macro = macro.agent_id;
    eicic.small_cells = {pico.agent_id};
    eicic.pattern = lte::AbsPattern::per_frame(kAbsPerFrame);
    eicic.mode = config.mode;
    testbed.master().add_app(std::make_unique<apps::EicicCoordinatorApp>(eicic));
  }

  // Saturating downlink UDP toward the macro UEs; CBR toward the pico UE.
  testbed.on_tti([&testbed, &macro, macro_ues](std::int64_t) {
    for (const auto rnti : macro_ues) {
      const auto* ue = macro.data_plane->ue(rnti);
      if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
        (void)testbed.epc().downlink(rnti, 60'000);
      }
    }
  });
  traffic::UdpCbrSource pico_traffic(
      testbed.sim(), [&testbed, pico_ue](std::uint32_t bytes) {
        (void)testbed.epc().downlink(pico_ue, bytes);
      },
      kSmallCellOfferedMbps);
  pico_traffic.start();

  testbed.run_seconds(config.warmup_s);
  const auto macro_before = testbed.metrics().total_bytes_enb(1, lte::Direction::downlink);
  const auto pico_before = testbed.metrics().total_bytes_enb(2, lte::Direction::downlink);
  testbed.run_seconds(config.measure_s);
  const auto macro_bytes =
      testbed.metrics().total_bytes_enb(1, lte::Direction::downlink) - macro_before;
  const auto pico_bytes =
      testbed.metrics().total_bytes_enb(2, lte::Direction::downlink) - pico_before;

  EicicScenarioResult result;
  result.macro_mbps = Metrics::mbps(macro_bytes, config.measure_s);
  result.small_mbps = Metrics::mbps(pico_bytes, config.measure_s);
  result.network_mbps = result.macro_mbps + result.small_mbps;
  return result;
}

}  // namespace flexran::scenario
