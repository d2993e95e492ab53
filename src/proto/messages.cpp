#include "proto/messages.h"

namespace flexran::proto {

using util::Error;
using util::Result;
using util::Status;
using Bytes = std::span<const std::uint8_t>;

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::hello: return "hello";
    case MessageType::echo_request: return "echo_request";
    case MessageType::echo_reply: return "echo_reply";
    case MessageType::enb_config_request: return "enb_config_request";
    case MessageType::enb_config_reply: return "enb_config_reply";
    case MessageType::ue_config_request: return "ue_config_request";
    case MessageType::ue_config_reply: return "ue_config_reply";
    case MessageType::lc_config_request: return "lc_config_request";
    case MessageType::lc_config_reply: return "lc_config_reply";
    case MessageType::stats_request: return "stats_request";
    case MessageType::stats_reply: return "stats_reply";
    case MessageType::dl_mac_config: return "dl_mac_config";
    case MessageType::ul_mac_config: return "ul_mac_config";
    case MessageType::handover_command: return "handover_command";
    case MessageType::abs_config: return "abs_config";
    case MessageType::event_notification: return "event_notification";
    case MessageType::control_delegation: return "control_delegation";
    case MessageType::policy_reconfiguration: return "policy_reconfiguration";
    case MessageType::event_subscription: return "event_subscription";
    case MessageType::carrier_restriction: return "carrier_restriction";
    case MessageType::drx_config: return "drx_config";
    case MessageType::scell_command: return "scell_command";
  }
  return "?";
}

const char* to_string(MessageCategory category) {
  switch (category) {
    case MessageCategory::agent_management: return "agent_management";
    case MessageCategory::sync: return "sync";
    case MessageCategory::stats: return "stats";
    case MessageCategory::commands: return "commands";
    case MessageCategory::delegation: return "delegation";
  }
  return "?";
}

const char* to_string(VsfFailureKind kind) {
  switch (kind) {
    case VsfFailureKind::none: return "none";
    case VsfFailureKind::exception: return "exception";
    case VsfFailureKind::overrun: return "overrun";
    case VsfFailureKind::invalid_decision: return "invalid_decision";
  }
  return "?";
}

// ----------------------------------------------------------------- Envelope

std::vector<std::uint8_t> Envelope::encode() const {
  WireEncoder enc;
  Fields::encode(enc, *this);
  return enc.take();
}

Result<Envelope> Envelope::decode(std::span<const std::uint8_t> data) {
  Envelope out;
  auto status = decode_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

Status Envelope::decode_into(std::span<const std::uint8_t> data, Envelope& out) {
  WireDecoder dec(data);
  const std::uint32_t seen = Fields::decode(dec, out);
  if (!dec.ok()) return dec.status();
  if ((seen & Fields::bit<&Envelope::type>) == 0) {
    return Error::decode_failure("envelope missing type");
  }
  return {};
}

// ------------------------------------------------------------------ configs

CellConfigMsg CellConfigMsg::from(const lte::CellConfig& config) {
  CellConfigMsg msg;
  msg.cell_id = config.cell_id;
  msg.bandwidth_mhz = config.bandwidth_mhz;
  msg.duplex = static_cast<std::uint8_t>(config.duplex);
  msg.tx_mode = static_cast<std::uint8_t>(config.tx_mode);
  msg.antenna_ports = static_cast<std::uint8_t>(config.antenna_ports);
  msg.band = static_cast<std::uint16_t>(config.band);
  msg.pci = static_cast<std::uint16_t>(config.pci);
  return msg;
}

lte::CellConfig CellConfigMsg::to_cell_config() const {
  lte::CellConfig config;
  config.cell_id = cell_id;
  config.bandwidth_mhz = bandwidth_mhz;
  config.duplex = static_cast<lte::Duplex>(duplex);
  config.tx_mode = static_cast<lte::TransmissionMode>(tx_mode);
  config.antenna_ports = antenna_ports;
  config.band = band;
  config.pci = pci;
  return config;
}

UeConfigMsg UeConfigMsg::from(const lte::UeConfig& config) {
  UeConfigMsg msg;
  msg.rnti = config.rnti;
  msg.primary_cell = config.primary_cell;
  msg.tx_mode = static_cast<std::uint8_t>(config.tx_mode);
  msg.ue_category = static_cast<std::uint8_t>(config.ue_category);
  msg.carrier_aggregation = config.carrier_aggregation;
  return msg;
}

lte::UeConfig UeConfigMsg::to_ue_config() const {
  lte::UeConfig config;
  config.rnti = rnti;
  config.primary_cell = primary_cell;
  config.tx_mode = static_cast<lte::TransmissionMode>(tx_mode);
  config.ue_category = ue_category;
  config.carrier_aggregation = carrier_aggregation;
  return config;
}

// ------------------------------------------------------------------- bodies
// Every body codec is its message's field table, expanded (proto/fields.h).

void Hello::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void EchoRequest::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void EchoReply::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void EnbConfigReply::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void UeConfigReply::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void LcConfigReply::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void StatsRequest::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void StatsReply::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void DlMacConfig::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void UlMacConfig::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void HandoverCommand::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void AbsConfig::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void CarrierRestriction::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void DrxConfig::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void ScellCommand::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void EventNotification::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void EventSubscription::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void ControlDelegation::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }
void PolicyReconfiguration::encode_body(WireEncoder& enc) const { Fields::encode(enc, *this); }

Result<Hello> Hello::decode_body(Bytes data) { return decode_message<Hello>(data); }
Result<EchoRequest> EchoRequest::decode_body(Bytes data) {
  return decode_message<EchoRequest>(data);
}
Result<EchoReply> EchoReply::decode_body(Bytes data) { return decode_message<EchoReply>(data); }
Result<EnbConfigReply> EnbConfigReply::decode_body(Bytes data) {
  return decode_message<EnbConfigReply>(data);
}
Result<UeConfigReply> UeConfigReply::decode_body(Bytes data) {
  return decode_message<UeConfigReply>(data);
}
Result<LcConfigReply> LcConfigReply::decode_body(Bytes data) {
  return decode_message<LcConfigReply>(data);
}
Result<StatsRequest> StatsRequest::decode_body(Bytes data) {
  return decode_message<StatsRequest>(data);
}
Result<StatsReply> StatsReply::decode_body(Bytes data) { return decode_message<StatsReply>(data); }
Result<HandoverCommand> HandoverCommand::decode_body(Bytes data) {
  return decode_message<HandoverCommand>(data);
}
Result<AbsConfig> AbsConfig::decode_body(Bytes data) { return decode_message<AbsConfig>(data); }
Result<CarrierRestriction> CarrierRestriction::decode_body(Bytes data) {
  return decode_message<CarrierRestriction>(data);
}
Result<DrxConfig> DrxConfig::decode_body(Bytes data) { return decode_message<DrxConfig>(data); }
Result<ScellCommand> ScellCommand::decode_body(Bytes data) {
  return decode_message<ScellCommand>(data);
}
Result<EventNotification> EventNotification::decode_body(Bytes data) {
  return decode_message<EventNotification>(data);
}
Result<EventSubscription> EventSubscription::decode_body(Bytes data) {
  return decode_message<EventSubscription>(data);
}
Result<ControlDelegation> ControlDelegation::decode_body(Bytes data) {
  return decode_message<ControlDelegation>(data);
}
Result<PolicyReconfiguration> PolicyReconfiguration::decode_body(Bytes data) {
  return decode_message<PolicyReconfiguration>(data);
}

Status StatsReply::decode_body_into(Bytes data, StatsReply& out) { return decode_into(data, out); }
Status DlMacConfig::decode_body_into(Bytes data, DlMacConfig& out) {
  return decode_into(data, out);
}
Status UlMacConfig::decode_body_into(Bytes data, UlMacConfig& out) {
  return decode_into(data, out);
}

void UeStatsReport::reset() { Fields::reset(*this); }

void BsrOverflow::dropped() {
  decode_anomalies().bsr_overflow.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ helpers

DecodeAnomalies& decode_anomalies() {
  static DecodeAnomalies anomalies;
  return anomalies;
}

MessageCategory categorize(MessageType type) {
  switch (type) {
    case MessageType::stats_request:
    case MessageType::stats_reply:
      return MessageCategory::stats;
    case MessageType::dl_mac_config:
    case MessageType::ul_mac_config:
    case MessageType::handover_command:
    case MessageType::abs_config:
    case MessageType::carrier_restriction:
    case MessageType::drx_config:
    case MessageType::scell_command:
      return MessageCategory::commands;
    case MessageType::control_delegation:
    case MessageType::policy_reconfiguration:
      return MessageCategory::delegation;
    default:
      return MessageCategory::agent_management;
  }
}

net::TrafficClass traffic_class(MessageType type) {
  switch (type) {
    case MessageType::hello:
    case MessageType::echo_request:
    case MessageType::echo_reply:
      return net::TrafficClass::session;
    case MessageType::dl_mac_config:
    case MessageType::ul_mac_config:
    case MessageType::handover_command:
    case MessageType::abs_config:
    case MessageType::carrier_restriction:
    case MessageType::drx_config:
    case MessageType::scell_command:
    case MessageType::control_delegation:
    case MessageType::policy_reconfiguration:
      return net::TrafficClass::command;
    case MessageType::stats_reply:
      return net::TrafficClass::stats;
    case MessageType::event_notification:
      return net::TrafficClass::event;
    default:
      // Config exchange, stats requests, event subscriptions: negotiated
      // state the peer waits on -- never shed.
      return net::TrafficClass::config;
  }
}

RxClass classify(MessageType type, std::span<const std::uint8_t> body) {
  RxClass out{categorize(type), traffic_class(type), 0};
  if (type != MessageType::event_notification && type != MessageType::stats_reply) return out;
  // Both bodies lead with field 1: the event type, or the request_id. Read
  // up to it and no further.
  WireDecoder dec(body);
  bool found = false;
  std::uint64_t field1 = 0;
  while (dec.next()) {
    if (dec.field() == 1) {
      field1 = dec.varint();
      found = dec.ok();
      break;
    }
    dec.skip();
  }
  if (type == MessageType::stats_reply) {
    out.request_id = found ? static_cast<std::uint32_t>(field1) : 0;
    return out;
  }
  // An absent event field is the default, a subframe tick; an undecodable
  // one is not a tick.
  const bool tick = found ? static_cast<EventType>(field1) == EventType::subframe_tick
                          : dec.ok();
  if (tick) {
    out.category = MessageCategory::sync;
    out.traffic_class = net::TrafficClass::sync;
  }
  return out;
}

}  // namespace flexran::proto
