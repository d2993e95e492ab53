// Transport abstraction for the FlexRAN protocol channel (paper Sec. 4.3.2:
// "the communication channel implementation can vary"). Two implementations:
//   SimTransport - in-process, runs over sim::SimLink inside the
//                  discrete-event simulator (all experiments);
//   TcpTransport - real framed TCP sockets (integration tests / live use).
// Both are message-oriented at this interface; framing overhead is included
// in byte counts so signaling measurements match a TCP deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/flow_control.h"
#include "util/result.h"

namespace flexran::net {

class Transport {
 public:
  /// Receives one decoded-frame payload. The span points into the
  /// transport's receive buffer (for SimTransport, the link's pooled frame
  /// buffer) and is valid only for the duration of the callback: decode into owned state (or copy) before returning
  /// (docs/wire_fastpath.md). All frames available per wake are delivered in
  /// one drain pass, back to back, before the transport reads again.
  using ReceiveFn = std::function<void(std::span<const std::uint8_t>)>;
  /// Invoked once when the connection is irrecoverably gone (peer closed,
  /// socket error, corrupt framing, injected fault). After it fires, the
  /// owner should stop using the transport and drive its reconnect logic.
  using DisconnectFn = std::function<void(util::Error)>;

  virtual ~Transport() = default;

  /// Queues one protocol message for delivery to the peer.
  virtual util::Status send(std::span<const std::uint8_t> message) = 0;
  /// Class-aware send: a budgeted transport may shed sheddable classes
  /// under pressure (shedding is flow control, not an error -- the call
  /// still returns ok). Default ignores the class and forwards to send().
  virtual util::Status send(TrafficClass cls, std::span<const std::uint8_t> message) {
    (void)cls;
    return send(message);
  }
  /// Installs the outgoing budget for class-aware shedding. Default no-op:
  /// TCP already has native backpressure (blocking writes against the
  /// socket buffer), so only queue-modelled transports act on it.
  virtual void set_send_budget(QueueBudget budget) { (void)budget; }

  /// Registers the message sink; called once before traffic flows.
  virtual void set_receive_callback(ReceiveFn fn) = 0;
  /// Registers the disconnect sink (optional; default discards).
  virtual void set_disconnect_callback(DisconnectFn fn) { (void)fn; }

  virtual std::uint64_t messages_sent() const = 0;
  /// Bytes on the wire, including framing.
  virtual std::uint64_t bytes_sent() const = 0;
  /// Messages delivered to the receive callback.
  virtual std::uint64_t messages_received() const { return 0; }
  /// Frames lost on the path (partition drops), where the transport knows.
  virtual std::uint64_t frames_dropped() const { return 0; }
  /// Frames shed locally by the send budget (sheddable classes only).
  virtual std::uint64_t frames_shed() const { return 0; }
};

}  // namespace flexran::net
