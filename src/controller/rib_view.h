// High-level northbound abstractions over the raw RIB. The paper notes
// (Secs. 4.3.3 and 7.3) that its implementation "does not provide any
// high-level abstraction for the stored information, revealing raw data to
// the northbound API" and lists such abstractions as future work -- this is
// that layer: flattened UE summaries.
#pragma once

#include <optional>
#include <vector>

#include "controller/rib.h"
#include "controller/rib_snapshot.h"

namespace flexran::ctrl {

/// One row of the flattened network view.
struct UeSummary {
  AgentId agent = 0;
  lte::CellId cell = 0;
  lte::Rnti rnti = lte::kInvalidRnti;
  int cqi = 0;
  double cqi_avg = 0.0;
  std::uint32_t queue_bytes = 0;
  std::uint64_t dl_bytes_delivered = 0;
  /// Best non-serving cell by RSRP, if the UE reports measurements.
  std::optional<lte::CellId> best_neighbor;
  double best_neighbor_rsrp_dbm = -200.0;
};

/// One summary per UE row, in agent then RNTI order. A one-off view of a
/// live Rib goes through RibSnapshot::capture().
std::vector<UeSummary> summarize_ues(const RibSnapshot& snapshot);

}  // namespace flexran::ctrl
