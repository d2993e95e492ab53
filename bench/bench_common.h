// Shared helpers for the figure/table reproduction benches: paper-style
// table printing and common testbed construction.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "scenario/testbed.h"

namespace flexran::bench {

/// Short git SHA of the tree the bench was built from, "+dirty" when it had
/// uncommitted changes; stamped at build time by bench/git_sha.cmake so
/// checked-in result files are traceable to a commit.
extern const char* const kGitSha;

/// Common prefix for the machine-readable JSON line a bench emits:
/// benchmark name, the git SHA of the build, and a free-form config
/// summary. Callers splice it as the first fields of their JSON object:
///   std::string json = "{" + json_header("x", "enbs=2") + ",\"runs\":[...]}";
inline std::string json_header(const std::string& bench, const std::string& config) {
  return "\"bench\":\"" + bench + "\",\"git_sha\":\"" + kGitSha + "\",\"config\":\"" +
         config + "\"";
}

inline void print_header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void print_note(const std::string& note) { std::printf("%s\n", note.c_str()); }

inline scenario::EnbSpec basic_enb(lte::EnbId id = 1, const std::string& name = "enb") {
  scenario::EnbSpec spec;
  spec.enb.enb_id = id;
  spec.enb.cells[0].cell_id = id;
  spec.agent.name = name + "-" + std::to_string(id);
  return spec;
}

inline stack::UeProfile fixed_cqi_ue(int cqi, std::int64_t attach_after = 1, int ul_cqi = 8) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  profile.ul_cqi = ul_cqi;
  return profile;
}

/// Keeps the DL queue of `rnti` backlogged (speedtest / full-buffer UDP).
inline void saturate_dl(scenario::Testbed& testbed, std::size_t enb_index, lte::Rnti rnti,
                        std::uint32_t low_water = 60'000) {
  auto* dp = testbed.enb(enb_index).data_plane.get();
  testbed.on_tti([&testbed, dp, rnti, low_water](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->dl_queue.total_bytes() < low_water) {
      (void)testbed.epc().downlink(rnti, low_water);
    }
  });
}

/// Keeps the UL buffer of `rnti` backlogged.
inline void saturate_ul(scenario::Testbed& testbed, std::size_t enb_index, lte::Rnti rnti,
                        std::uint32_t low_water = 30'000) {
  auto* dp = testbed.enb(enb_index).data_plane.get();
  testbed.on_tti([dp, rnti, low_water](std::int64_t) {
    const auto* ue = dp->ue(rnti);
    if (ue != nullptr && ue->connected() && ue->ul_buffer_bytes < low_water) {
      dp->enqueue_ul(rnti, low_water);
    }
  });
}

}  // namespace flexran::bench
