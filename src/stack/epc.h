// EPC stub (substitution for openair-cn, see DESIGN.md): routes downlink
// traffic onto the right eNodeB/RNTI bearer and switches the path on
// handover. Uplink traffic terminates here via the data-plane delivery
// callback, so per-UE counters live with the traffic models instead.
#pragma once

#include <cstdint>
#include <map>

#include "stack/enodeb.h"

namespace flexran::stack {

/// Core-network-side UE identity (IMSI stand-in).
using UeId = std::uint32_t;

class EpcStub {
 public:
  void register_bearer(UeId ue, EnodebDataPlane* enb, lte::Rnti rnti,
                       lte::Lcid lcid = lte::kDefaultDrb);
  void remove_bearer(UeId ue);
  /// Handover path switch.
  util::Status move_bearer(UeId ue, EnodebDataPlane* target_enb, lte::Rnti new_rnti);

  /// Injects downlink application bytes toward the UE.
  util::Status downlink(UeId ue, std::uint32_t bytes);

  std::uint64_t downlink_bytes() const { return downlink_bytes_; }

 private:
  struct Bearer {
    EnodebDataPlane* enb = nullptr;  // not owned
    lte::Rnti rnti = lte::kInvalidRnti;
    lte::Lcid lcid = lte::kDefaultDrb;
  };
  std::map<UeId, Bearer> bearers_;
  std::uint64_t downlink_bytes_ = 0;
};

}  // namespace flexran::stack
