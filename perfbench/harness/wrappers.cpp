#include "wrappers.h"

namespace perfbench {

using flexran::ctrl::AgentId;
using flexran::ctrl::NorthboundApi;
using flexran::util::Status;

void WireCounts::add(std::span<const std::uint8_t> message) {
  ++msgs;
  bytes += message.size();
  // Every envelope starts with field 1 (version, one varint byte) and
  // field 2 (message type, one varint byte): 08 vv 10 tt.
  std::size_t type = 0;
  if (message.size() >= 4 && message[0] == 0x08 && message[2] == 0x10 && message[3] < 32) {
    type = message[3];
  }
  ++by_type[type];
}

Wire& wire() {
  static Wire instance;
  return instance;
}

void TimedTransport::set_receive_callback(ReceiveFn fn) {
  if (!fn) {
    inner_.set_receive_callback(nullptr);
    return;
  }
  const End end = end_;
  inner_.set_receive_callback(
      [end, fn = std::move(fn)](std::span<const std::uint8_t> message) {
        Span span(end == End::master ? Kind::controller_rx : Kind::agent_rx);
        if (end == End::master) wire().master_rx.add(message);
        fn(message);
      });
}

namespace {

/// Forwards every NorthboundApi call; commands become child spans.
class TimedNorthbound final : public NorthboundApi {
 public:
  TimedNorthbound(NorthboundApi& inner, bool spans_compose, std::uint64_t& commands)
      : inner_(inner), spans_compose_(spans_compose), commands_(commands) {}

  std::shared_ptr<const flexran::ctrl::RibSnapshot> rib_snapshot() const override {
    if (!spans_compose_) return inner_.rib_snapshot();
    Span span(Kind::compose);
    return inner_.rib_snapshot();
  }
  flexran::sim::TimeUs now() const override { return inner_.now(); }
  std::int64_t agent_subframe(AgentId agent) const override {
    return inner_.agent_subframe(agent);
  }

  Status send_dl_mac_config(AgentId agent, const flexran::proto::DlMacConfig& c) override {
    return command([&] { return inner_.send_dl_mac_config(agent, c); });
  }
  Status send_ul_mac_config(AgentId agent, const flexran::proto::UlMacConfig& c) override {
    return command([&] { return inner_.send_ul_mac_config(agent, c); });
  }
  Status send_handover(AgentId agent, const flexran::proto::HandoverCommand& c) override {
    return command([&] { return inner_.send_handover(agent, c); });
  }
  Status send_abs_config(AgentId agent, const flexran::proto::AbsConfig& c) override {
    return command([&] { return inner_.send_abs_config(agent, c); });
  }
  Status send_carrier_restriction(AgentId agent,
                                  const flexran::proto::CarrierRestriction& c) override {
    return command([&] { return inner_.send_carrier_restriction(agent, c); });
  }
  Status send_drx_config(AgentId agent, const flexran::proto::DrxConfig& c) override {
    return command([&] { return inner_.send_drx_config(agent, c); });
  }
  Status send_scell_command(AgentId agent, const flexran::proto::ScellCommand& c) override {
    return command([&] { return inner_.send_scell_command(agent, c); });
  }
  Status request_stats(AgentId agent, const flexran::proto::StatsRequest& r) override {
    return command([&] { return inner_.request_stats(agent, r); });
  }
  Status subscribe_events(AgentId agent, std::vector<flexran::proto::EventType> events,
                          bool enable) override {
    return command([&] { return inner_.subscribe_events(agent, std::move(events), enable); });
  }
  Status push_vsf(AgentId agent, const std::string& module, const std::string& vsf,
                  const std::string& implementation) override {
    return command([&] { return inner_.push_vsf(agent, module, vsf, implementation); });
  }
  Status send_policy(AgentId agent, const std::string& yaml) override {
    return command([&] { return inner_.send_policy(agent, yaml); });
  }

 private:
  template <typename F>
  Status command(F&& call) {
    Span span(Kind::command);
    ++commands_;
    return call();
  }

  NorthboundApi& inner_;
  bool spans_compose_;
  std::uint64_t& commands_;
};

}  // namespace

void TimedApp::on_start(NorthboundApi& api) {
  TimedNorthbound timed(api, spans_compose_, commands_);
  inner_->on_start(timed);
}

void TimedApp::on_cycle(std::int64_t cycle, NorthboundApi& api) {
  Span span(kind_);
  TimedNorthbound timed(api, spans_compose_, commands_);
  inner_->on_cycle(cycle + cycle_offset_, timed);
}

// Events are not spanned as app time: one on_cycle per cycle is the
// sample the app metrics are defined over.
void TimedApp::on_event(const flexran::ctrl::Event& event, NorthboundApi& api) {
  TimedNorthbound timed(api, spans_compose_, commands_);
  inner_->on_event(event, timed);
}

}  // namespace perfbench
