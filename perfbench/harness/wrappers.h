// Decorators over the program's public seams. Each forwards every call to
// the wrapped object unchanged and, while the tracer is on, records a span
// around it. The transport decorator also counts messages and bytes by
// protocol message type in both directions; the benchmark's operation
// accounting (reports sent and delivered, decisions flushed) reads those
// counts, so they are kept whether or not spans are recorded.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "controller/app.h"
#include "net/transport.h"
#include "stack/enodeb.h"
#include "trace.h"

namespace perfbench {

/// Message and byte counts for one direction of the control channel.
struct WireCounts {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  /// Indexed by proto::MessageType (0 = undecodable header).
  std::array<std::uint64_t, 32> by_type{};

  void add(std::span<const std::uint8_t> message);
};

/// Fleet-wide counts, summed over every decorated link.
struct Wire {
  WireCounts up_sent;        ///< agent -> master, at the agent's send
  WireCounts down_sent;      ///< master -> agent, at the master's send
  WireCounts master_rx;      ///< delivered to the master's receive callback
};
Wire& wire();

/// Which end of a link a TimedTransport decorates.
enum class End { master, agent };

class TimedTransport final : public flexran::net::Transport {
 public:
  TimedTransport(flexran::net::Transport& inner, End end) : inner_(inner), end_(end) {}

  flexran::util::Status send(std::span<const std::uint8_t> message) override {
    Span span(Kind::net_send);
    sent().add(message);
    return inner_.send(message);
  }
  flexran::util::Status send(flexran::net::TrafficClass cls,
                             std::span<const std::uint8_t> message) override {
    Span span(Kind::net_send);
    sent().add(message);
    return inner_.send(cls, message);
  }
  void set_send_budget(flexran::net::QueueBudget budget) override {
    inner_.set_send_budget(budget);
  }
  void set_receive_callback(ReceiveFn fn) override;
  void set_disconnect_callback(DisconnectFn fn) override {
    inner_.set_disconnect_callback(std::move(fn));
  }
  std::uint64_t messages_sent() const override { return inner_.messages_sent(); }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_received() const override { return inner_.messages_received(); }
  std::uint64_t frames_dropped() const override { return inner_.frames_dropped(); }
  std::uint64_t frames_shed() const override { return inner_.frames_shed(); }

 private:
  WireCounts& sent() { return end_ == End::master ? wire().down_sent : wire().up_sent; }

  flexran::net::Transport& inner_;
  End end_;
};

/// Wraps the agent's data-plane listener (installed in its place).
class TimedListener final : public flexran::stack::EnodebDataPlane::Listener {
 public:
  TimedListener(Listener& inner, std::uint32_t key) : inner_(inner), key_(key) {}

  void on_subframe_start(std::int64_t subframe) override {
    Span span(Kind::agent_subframe, key_);
    inner_.on_subframe_start(subframe);
  }
  void on_rach(flexran::lte::Rnti rnti, std::int64_t subframe) override {
    Span span(Kind::agent_event, key_);
    inner_.on_rach(rnti, subframe);
  }
  void on_ue_attached(flexran::lte::Rnti rnti, std::int64_t subframe) override {
    Span span(Kind::agent_event, key_);
    inner_.on_ue_attached(rnti, subframe);
  }
  void on_ue_detached(flexran::lte::Rnti rnti, std::int64_t subframe) override {
    Span span(Kind::agent_event, key_);
    inner_.on_ue_detached(rnti, subframe);
  }
  void on_scheduling_request(flexran::lte::Rnti rnti, std::int64_t subframe) override {
    Span span(Kind::agent_event, key_);
    inner_.on_scheduling_request(rnti, subframe);
  }

 private:
  Listener& inner_;
  std::uint32_t key_;
};

/// Wraps an application. on_cycle runs under a span of `kind`, and the app
/// talks to the northbound API through a decorator that records each
/// command as a child span (so the app's self time excludes its sends) and,
/// with `spans_compose`, each rib_snapshot() call as a compose span (for an
/// app on the Coordinator, where that call builds the composite view).
/// `cycle_offset` shifts the cycle number the app sees, which staggers
/// period-driven apps that would otherwise fire on the same cycle.
class TimedApp final : public flexran::ctrl::App {
 public:
  TimedApp(std::unique_ptr<flexran::ctrl::App> inner, Kind kind, bool spans_compose = false,
           std::int64_t cycle_offset = 0)
      : inner_(std::move(inner)),
        kind_(kind),
        spans_compose_(spans_compose),
        cycle_offset_(cycle_offset) {}

  std::string_view name() const override { return inner_->name(); }
  int priority() const override { return inner_->priority(); }
  void on_start(flexran::ctrl::NorthboundApi& api) override;
  void on_cycle(std::int64_t cycle, flexran::ctrl::NorthboundApi& api) override;
  void on_event(const flexran::ctrl::Event& event, flexran::ctrl::NorthboundApi& api) override;

  /// Commands the app issued through the northbound API, all cycles.
  std::uint64_t commands() const { return commands_; }

 private:
  std::unique_ptr<flexran::ctrl::App> inner_;
  Kind kind_;
  bool spans_compose_;
  std::int64_t cycle_offset_;
  std::uint64_t commands_ = 0;
};

}  // namespace perfbench
