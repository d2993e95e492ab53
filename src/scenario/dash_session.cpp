#include "scenario/dash_session.h"

namespace flexran::scenario {

DashSession::DashSession(Testbed& testbed, std::size_t enb_index, lte::Rnti rnti,
                         traffic::DashVideo video, traffic::DashClientConfig config)
    : rnti_(rnti) {
  stack::EnodebDataPlane* dp = testbed.enb(enb_index).data_plane.get();
  auto& epc = testbed.epc();

  flow_ = std::make_unique<traffic::TcpFlow>(
      testbed.sim(),
      [&epc, rnti](std::uint32_t bytes) { (void)epc.downlink(rnti, bytes); },
      [dp, rnti]() -> std::uint32_t {
        const auto* ue = dp->ue(rnti);
        return ue != nullptr ? ue->dl_queue.total_bytes() : 0;
      });
  client_ = std::make_unique<traffic::DashClient>(testbed.sim(), *flow_, std::move(video),
                                                  config);

  traffic::TcpFlow* flow = flow_.get();
  testbed.add_delivery_listener(
      enb_index, [flow, rnti](lte::Rnti r, std::uint32_t bytes, lte::Direction direction) {
        if (r == rnti && direction == lte::Direction::downlink) flow->on_delivered(bytes);
      });
  traffic::DashClient* client = client_.get();
  testbed.on_tti([flow, client](std::int64_t tti) {
    flow->on_tti(tti);
    client->on_tti(tti);
  });
}

}  // namespace flexran::scenario
