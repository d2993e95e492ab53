// Wires a DASH client + TCP flow onto a testbed UE's default bearer: the
// full Sec. 6.2 MEC experiment path (video server behind the EPC, TCP over
// the LTE bearer, DASH adaptation at the UE, optionally assisted by the
// FlexRAN MEC application through set_bitrate_cap_mbps).
#pragma once

#include <memory>

#include "scenario/testbed.h"
#include "traffic/dash.h"
#include "traffic/tcp.h"

namespace flexran::scenario {

class DashSession {
 public:
  DashSession(Testbed& testbed, std::size_t enb_index, lte::Rnti rnti,
              traffic::DashVideo video, traffic::DashClientConfig config = {});

  traffic::DashClient& client() { return *client_; }

  void start() { client_->start(); }

 private:
  lte::Rnti rnti_;
  std::unique_ptr<traffic::TcpFlow> flow_;
  std::unique_ptr<traffic::DashClient> client_;
};

}  // namespace flexran::scenario
