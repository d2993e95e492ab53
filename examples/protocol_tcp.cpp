// FlexRAN protocol over real TCP sockets: a miniature master/agent exchange
// on localhost demonstrating the wire protocol the platform uses -- framed,
// protobuf-style-encoded envelopes. Prints each message with its type,
// size, and Fig. 7 accounting category.
//
//   ./examples/protocol_tcp
#include <cstdio>
#include <thread>

#include "net/tcp_transport.h"
#include "proto/messages.h"

using namespace flexran;

namespace {

void print_message(const char* who, const proto::Envelope& envelope, std::size_t wire_bytes) {
  std::printf("%-8s %-22s xid=%-4u %4zu bytes on the wire  [%s]\n", who,
              proto::to_string(envelope.type), envelope.xid, wire_bytes,
              proto::to_string(proto::classify(envelope.type, envelope.body).category));
}

}  // namespace

int main() {
  auto listener = net::TcpListener::listen(0);
  if (!listener.ok()) {
    std::printf("listen failed: %s\n", listener.error().message.c_str());
    return 1;
  }
  const auto port = (*listener)->port();
  std::printf("master listening on 127.0.0.1:%u\n\n", port);

  // "Master" side: accept the agent, answer its hello with a config request
  // and a stats subscription.
  std::unique_ptr<net::TcpTransport> master_side;
  std::thread master([&] {
    auto accepted = (*listener)->accept();
    if (!accepted.ok()) return;
    master_side = std::move(*accepted);
    master_side->set_receive_callback([&](std::span<const std::uint8_t> data) {
      auto envelope = proto::Envelope::decode(data);
      if (!envelope.ok()) return;
      print_message("master<-", *envelope, data.size() + net::kFrameHeaderBytes);
      if (envelope->type == proto::MessageType::hello) {
        (void)master_side->send(proto::pack(proto::EnbConfigRequest{}, 10));
        proto::StatsRequest stats;
        stats.request_id = 1;
        stats.mode = proto::ReportMode::periodic;
        stats.periodicity_ttis = 1;
        (void)master_side->send(proto::pack(stats, 11));
      }
    });
    master_side->start();
  });

  auto agent = net::TcpTransport::connect("127.0.0.1", port);
  if (!agent.ok()) {
    std::printf("connect failed: %s\n", agent.error().message.c_str());
    return 1;
  }
  master.join();

  int agent_received = 0;
  (*agent)->set_receive_callback([&](std::span<const std::uint8_t> data) {
    auto envelope = proto::Envelope::decode(data);
    if (!envelope.ok()) return;
    print_message("agent <-", *envelope, data.size() + net::kFrameHeaderBytes);
    if (envelope->type == proto::MessageType::enb_config_request) {
      proto::EnbConfigReply reply;
      reply.enb_id = 1;
      reply.cells.push_back(proto::CellConfigMsg::from(lte::CellConfig{}));
      (void)(*agent)->send(proto::pack(reply, envelope->xid));
    }
    ++agent_received;
  });
  (*agent)->start();

  // Agent hello.
  proto::Hello hello;
  hello.enb_id = 1;
  hello.name = "tcp-demo-enb";
  hello.capabilities = {"mac", "rrc", "delegation"};
  (void)(*agent)->send(proto::pack(hello, 1));

  // And one stats reply as the periodic reporting would produce.
  proto::StatsReply stats;
  stats.request_id = 1;
  stats.subframe = 1234;
  proto::UeStatsReport ue;
  ue.rnti = 70;
  ue.wb_cqi = 12;
  ue.rlc_queue_bytes = 4096;
  ue.bsr_bytes = {0, 0, 4096, 0};
  stats.ue_reports.push_back(ue);
  (void)(*agent)->send(proto::pack(stats, 2));

  for (int i = 0; i < 200 && agent_received < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  (*agent)->close();
  if (master_side) master_side->close();
  std::printf("\ndone: the same envelopes the simulated experiments use, over real TCP.\n");
  return 0;
}
