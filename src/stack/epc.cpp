#include "stack/epc.h"

namespace flexran::stack {

void EpcStub::register_bearer(UeId ue, EnodebDataPlane* enb, lte::Rnti rnti, lte::Lcid lcid) {
  bearers_[ue] = Bearer{enb, rnti, lcid};
}

void EpcStub::remove_bearer(UeId ue) { bearers_.erase(ue); }

util::Status EpcStub::move_bearer(UeId ue, EnodebDataPlane* target_enb, lte::Rnti new_rnti) {
  auto it = bearers_.find(ue);
  if (it == bearers_.end()) return util::Error::not_found("move_bearer: unknown UE");
  it->second.enb = target_enb;
  it->second.rnti = new_rnti;
  return {};
}

util::Status EpcStub::downlink(UeId ue, std::uint32_t bytes) {
  auto it = bearers_.find(ue);
  if (it == bearers_.end()) return util::Error::not_found("downlink: unknown UE");
  it->second.enb->enqueue_dl(it->second.rnti, it->second.lcid, bytes);
  downlink_bytes_ += bytes;
  return {};
}

}  // namespace flexran::stack
