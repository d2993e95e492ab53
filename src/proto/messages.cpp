#include "proto/messages.h"

#include <cmath>

namespace flexran::proto {

using util::Error;
using util::Result;
using util::Status;

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
  enc.field_varint(1, version);
  enc.field_varint(2, static_cast<std::uint64_t>(type));
  if (xid != 0) enc.field_varint(3, xid);
  enc.field_bytes(4, body);
  encode_tail(enc);
  return enc.take();
}

void Envelope::encode_tail(WireEncoder& enc) const {
  if (epoch != 0) enc.field_varint(5, epoch);
  if (queue_status != 0) enc.field_varint(6, queue_status);
  if (throttle_hint != 0) enc.field_varint(7, throttle_hint);
  if (ts_us != 0) enc.field_varint(8, ts_us);
  if (ts_echo_us != 0) enc.field_varint(9, ts_echo_us);
  if (master_epoch != 0) enc.field_varint(10, master_epoch);
  if (retry_after_ms != 0) enc.field_varint(11, retry_after_ms);
}

Result<Envelope> Envelope::decode(std::span<const std::uint8_t> data) {
  Envelope out;
  auto status = decode_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

Status Envelope::decode_into(std::span<const std::uint8_t> data, Envelope& out) {
  // Reset to defaults field by field (rather than `out = Envelope{}`) so the
  // body vector keeps its capacity across reuse.
  out.version = kProtocolVersion;
  out.type = MessageType::hello;
  out.xid = 0;
  out.epoch = 0;
  out.queue_status = 0;
  out.throttle_hint = 0;
  out.ts_us = 0;
  out.ts_echo_us = 0;
  out.master_epoch = 0;
  out.retry_after_ms = 0;
  out.body.clear();
  bool saw_type = false;
  WireDecoder dec(data);
  dec.fields(fields_through(11), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.version);
      case tag_byte(2, WireType::varint):
        saw_type = true;
        return dec.read<kPeeked>(tag, out.type);
      case tag_byte(3, WireType::varint): return dec.read<kPeeked>(tag, out.xid);
      case tag_byte(4, WireType::length_delimited): {
        dec.take<kPeeked>(tag);
        const auto body = dec.bytes();
        out.body.assign(body.begin(), body.end());
        return true;
      }
      case tag_byte(5, WireType::varint): return dec.read<kPeeked>(tag, out.epoch);
      case tag_byte(6, WireType::varint): return dec.read<kPeeked>(tag, out.queue_status);
      case tag_byte(7, WireType::varint): return dec.read<kPeeked>(tag, out.throttle_hint);
      case tag_byte(8, WireType::varint): return dec.read<kPeeked>(tag, out.ts_us);
      case tag_byte(9, WireType::varint): return dec.read<kPeeked>(tag, out.ts_echo_us);
      case tag_byte(10, WireType::varint): return dec.read<kPeeked>(tag, out.master_epoch);
      case tag_byte(11, WireType::varint): return dec.read<kPeeked>(tag, out.retry_after_ms);
      default: return false;
    }
  });
  if (!dec.ok()) return dec.status();
  if (!saw_type) return Error::decode_failure("envelope missing type");
  return {};
}

// -------------------------------------------------------------------- Hello

void Hello::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, enb_id);
  enc.field_string(2, name);
  enc.field_varint(3, n_cells);
  for (const auto& cap : capabilities) enc.field_string(4, cap);
  if (epoch != 0) enc.field_varint(5, epoch);
}

Result<Hello> Hello::decode_body(std::span<const std::uint8_t> data) {
  Hello out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.enb_id); break;
      case 2: dec.read(out.name); break;
      case 3: dec.read(out.n_cells); break;
      case 4: dec.read(out.capabilities.emplace_back()); break;
      case 5: dec.read(out.epoch); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// --------------------------------------------------------------------- Echo

void EchoRequest::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, timestamp_us);
}

Result<EchoRequest> EchoRequest::decode_body(std::span<const std::uint8_t> data) {
  EchoRequest out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: out.subframe = dec.svarint(); break;
      case 2: out.timestamp_us = dec.svarint(); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void EchoReply::encode_body(WireEncoder& enc) const {
  enc.field_svarint(1, subframe);
  enc.field_svarint(2, echoed_timestamp_us);
}

Result<EchoReply> EchoReply::decode_body(std::span<const std::uint8_t> data) {
  EchoReply out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: out.subframe = dec.svarint(); break;
      case 2: out.echoed_timestamp_us = dec.svarint(); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// ------------------------------------------------------------- cell configs

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

namespace {

// Nested encoders write straight into the parent encoder via begin_message/
// end_message: no per-sub-message WireEncoder, no copy, same bytes.
void encode_cell_config(WireEncoder& enc, int field, const CellConfigMsg& cell) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, cell.cell_id);
  enc.field_double(2, cell.bandwidth_mhz);
  enc.field_varint(3, cell.duplex);
  enc.field_varint(4, cell.tx_mode);
  enc.field_varint(5, cell.antenna_ports);
  enc.field_varint(6, cell.band);
  enc.field_varint(7, cell.pci);
  enc.end_message(mark);
}

void decode_cell_config(WireDecoder& dec, CellConfigMsg& out) {
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: dec.read(out.bandwidth_mhz); break;
      case 3: dec.read(out.duplex); break;
      case 4: dec.read(out.tx_mode); break;
      case 5: dec.read(out.antenna_ports); break;
      case 6: dec.read(out.band); break;
      case 7: dec.read(out.pci); break;
      default: dec.skip();
    }
  }
}

}  // namespace

void EnbConfigReply::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, enb_id);
  for (const auto& cell : cells) encode_cell_config(enc, 2, cell);
}

Result<EnbConfigReply> EnbConfigReply::decode_body(std::span<const std::uint8_t> data) {
  EnbConfigReply out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.enb_id); break;
      case 2: dec.message(out.cells.emplace_back(), decode_cell_config); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// --------------------------------------------------------------- UE configs

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

namespace {

void encode_ue_config(WireEncoder& enc, int field, const UeConfigMsg& ue) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, ue.rnti);
  enc.field_varint(2, ue.primary_cell);
  enc.field_varint(3, ue.tx_mode);
  enc.field_varint(4, ue.ue_category);
  enc.field_bool(5, ue.carrier_aggregation);
  enc.end_message(mark);
}

void decode_ue_config(WireDecoder& dec, UeConfigMsg& out) {
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: dec.read(out.primary_cell); break;
      case 3: dec.read(out.tx_mode); break;
      case 4: dec.read(out.ue_category); break;
      case 5: dec.read(out.carrier_aggregation); break;
      default: dec.skip();
    }
  }
}

void decode_lc_config(WireDecoder& dec, LcConfigMsg& out) {
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: dec.read(out.lcid); break;
      case 3: dec.read(out.lc_group); break;
      default: dec.skip();
    }
  }
}

}  // namespace

void UeConfigReply::encode_body(WireEncoder& enc) const {
  for (const auto& ue : ues) encode_ue_config(enc, 1, ue);
}

Result<UeConfigReply> UeConfigReply::decode_body(std::span<const std::uint8_t> data) {
  UeConfigReply out;
  WireDecoder dec(data);
  while (dec.next()) {
    if (dec.field() == 1) {
      dec.message(out.ues.emplace_back(), decode_ue_config);
    } else {
      dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// --------------------------------------------------------------- LC configs

void LcConfigReply::encode_body(WireEncoder& enc) const {
  for (const auto& lc : channels) {
    const auto mark = enc.begin_message(1);
    enc.field_varint(1, lc.rnti);
    enc.field_varint(2, lc.lcid);
    enc.field_varint(3, lc.lc_group);
    enc.end_message(mark);
  }
}

Result<LcConfigReply> LcConfigReply::decode_body(std::span<const std::uint8_t> data) {
  LcConfigReply out;
  WireDecoder dec(data);
  while (dec.next()) {
    if (dec.field() == 1) {
      dec.message(out.channels.emplace_back(), decode_lc_config);
    } else {
      dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// -------------------------------------------------------------------- stats

void StatsRequest::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, request_id);
  enc.field_varint(2, static_cast<std::uint64_t>(mode));
  enc.field_varint(3, periodicity_ttis);
  enc.field_varint(4, flags);
  for (auto rnti : ues) enc.field_varint(5, rnti);
}

Result<StatsRequest> StatsRequest::decode_body(std::span<const std::uint8_t> data) {
  StatsRequest out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.request_id); break;
      case 2: dec.read(out.mode); break;
      case 3: dec.read(out.periodicity_ttis); break;
      case 4: dec.read(out.flags); break;
      case 5: dec.read(out.ues.emplace_back()); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

namespace {

void encode_ue_report(WireEncoder& enc, int field, const UeStatsReport& report) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, report.rnti);
  for (auto bsr : report.bsr_bytes) enc.field_varint(2, bsr);
  enc.field_svarint(3, report.phr_db);
  enc.field_varint(4, report.wb_cqi);
  enc.field_varint(5, report.rlc_queue_bytes);
  if (report.pending_harq != 0) enc.field_varint(6, report.pending_harq);
  if (report.dl_bytes_delivered != 0) enc.field_varint(7, report.dl_bytes_delivered);
  if (report.ul_bytes_received != 0) enc.field_varint(8, report.ul_bytes_received);
  if (report.wb_cqi_protected != 0) enc.field_varint(9, report.wb_cqi_protected);
  if (report.ul_buffer_bytes != 0) enc.field_varint(11, report.ul_buffer_bytes);
  for (const auto& measurement : report.rsrp) {
    const auto sub = enc.begin_message(10);
    enc.field_varint(1, measurement.cell_id);
    // llround (not truncation) so decode -> re-encode is a fixpoint.
    enc.field_svarint(2, std::llround(measurement.rsrp_dbm * 100.0));
    enc.end_message(sub);
  }
  enc.end_message(mark);
}

void decode_rsrp(WireDecoder& dec, RsrpMeasurement& out) {
  dec.fields(fields_through(2), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.cell_id);
      case tag_byte(2, WireType::varint):
        dec.take<kPeeked>(tag);
        out.rsrp_dbm = static_cast<double>(dec.svarint()) / 100.0;
        return true;
      default: return false;
    }
  });
}

void decode_ue_report(WireDecoder& dec, UeStatsReport& out) {
  out.reset();
  std::size_t bsr_index = 0;
  dec.fields(fields_through(11), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.rnti);
      case tag_byte(2, WireType::varint): {
        dec.take<kPeeked>(tag);
        const auto bsr = static_cast<std::uint32_t>(dec.varint());
        if (!dec.ok()) return true;
        if (bsr_index < out.bsr_bytes.size()) {
          out.bsr_bytes[bsr_index++] = bsr;
        } else {
          // Keep the message but make the information loss visible: a peer
          // with more LC groups than we model is an anomaly worth counting,
          // not a decode failure (forward compatibility keeps the session up).
          decode_anomalies().bsr_overflow.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      case tag_byte(3, WireType::varint):
        dec.take<kPeeked>(tag);
        out.phr_db = static_cast<std::int32_t>(dec.svarint());
        return true;
      case tag_byte(4, WireType::varint): return dec.read<kPeeked>(tag, out.wb_cqi);
      case tag_byte(5, WireType::varint): return dec.read<kPeeked>(tag, out.rlc_queue_bytes);
      case tag_byte(6, WireType::varint): return dec.read<kPeeked>(tag, out.pending_harq);
      case tag_byte(7, WireType::varint): return dec.read<kPeeked>(tag, out.dl_bytes_delivered);
      case tag_byte(8, WireType::varint): return dec.read<kPeeked>(tag, out.ul_bytes_received);
      case tag_byte(9, WireType::varint): return dec.read<kPeeked>(tag, out.wb_cqi_protected);
      case tag_byte(10, WireType::length_delimited):
        dec.take<kPeeked>(tag);
        dec.message(out.rsrp.emplace_back(), decode_rsrp);
        return true;
      case tag_byte(11, WireType::varint): return dec.read<kPeeked>(tag, out.ul_buffer_bytes);
      default: return false;
    }
  });
}

void encode_cell_report(WireEncoder& enc, int field, const CellStatsReport& report) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, report.cell_id);
  enc.field_double(2, report.noise_interference_dbm);
  enc.field_varint(3, report.dl_prbs_in_use);
  enc.field_varint(4, report.ul_prbs_in_use);
  enc.field_varint(5, report.active_ues);
  enc.end_message(mark);
}

void decode_cell_report(WireDecoder& dec, CellStatsReport& out) {
  out = CellStatsReport{};
  dec.fields(fields_through(5), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.cell_id);
      case tag_byte(2, WireType::fixed64):
        return dec.read<kPeeked>(tag, out.noise_interference_dbm);
      case tag_byte(3, WireType::varint): return dec.read<kPeeked>(tag, out.dl_prbs_in_use);
      case tag_byte(4, WireType::varint): return dec.read<kPeeked>(tag, out.ul_prbs_in_use);
      case tag_byte(5, WireType::varint): return dec.read<kPeeked>(tag, out.active_ues);
      default: return false;
    }
  });
}

}  // namespace

void StatsReply::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, request_id);
  enc.field_svarint(2, subframe);
  for (const auto& report : ue_reports) encode_ue_report(enc, 3, report);
  for (const auto& report : cell_reports) encode_cell_report(enc, 4, report);
}

Result<StatsReply> StatsReply::decode_body(std::span<const std::uint8_t> data) {
  StatsReply out;
  auto status = decode_body_into(data, out);
  if (!status.ok()) return status.error();
  return out;
}

Status StatsReply::decode_body_into(std::span<const std::uint8_t> data, StatsReply& out) {
  out.request_id = 0;
  out.subframe = 0;
  // Decode over the existing report slots so their heap blocks (the vectors
  // themselves and each report's rsrp) are reused; trim to the decoded count
  // at the end. A same-shape reply touches no allocator at all.
  std::size_t n_ue = 0;
  std::size_t n_cell = 0;
  WireDecoder dec(data);
  dec.fields(fields_through(4), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.request_id);
      case tag_byte(2, WireType::varint):
        dec.take<kPeeked>(tag);
        out.subframe = dec.svarint();
        return true;
      case tag_byte(3, WireType::length_delimited):
        dec.take<kPeeked>(tag);
        if (n_ue == out.ue_reports.size()) out.ue_reports.emplace_back();
        dec.message(out.ue_reports[n_ue++], decode_ue_report);
        return true;
      case tag_byte(4, WireType::length_delimited):
        dec.take<kPeeked>(tag);
        if (n_cell == out.cell_reports.size()) out.cell_reports.emplace_back();
        dec.message(out.cell_reports[n_cell++], decode_cell_report);
        return true;
      default: return false;
    }
  });
  if (!dec.ok()) return dec.status();
  out.ue_reports.resize(n_ue);
  out.cell_reports.resize(n_cell);
  return {};
}

void UeStatsReport::reset() {
  auto kept = std::move(rsrp);
  *this = UeStatsReport{};
  rsrp = std::move(kept);
  rsrp.clear();
}

// ----------------------------------------------------------------- commands

namespace {

void encode_dl_dci(WireEncoder& enc, int field, const lte::DlDci& dci) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, dci.rnti);
  enc.field_varint(2, dci.rbs.word(0));
  if (dci.rbs.word(1) != 0) enc.field_varint(3, dci.rbs.word(1));
  enc.field_varint(4, static_cast<std::uint64_t>(dci.mcs));
  enc.field_varint(5, dci.harq_pid);
  enc.field_bool(6, dci.new_data);
  if (dci.carrier != 0) enc.field_varint(7, dci.carrier);
  enc.end_message(mark);
}

void decode_dl_dci(WireDecoder& dec, lte::DlDci& out) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  dec.fields(fields_through(7), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.rnti);
      case tag_byte(2, WireType::varint): return dec.read<kPeeked>(tag, w0);
      case tag_byte(3, WireType::varint): return dec.read<kPeeked>(tag, w1);
      case tag_byte(4, WireType::varint): return dec.read<kPeeked>(tag, out.mcs);
      case tag_byte(5, WireType::varint): return dec.read<kPeeked>(tag, out.harq_pid);
      case tag_byte(6, WireType::varint): return dec.read<kPeeked>(tag, out.new_data);
      case tag_byte(7, WireType::varint): return dec.read<kPeeked>(tag, out.carrier);
      default: return false;
    }
  });
  out.rbs = lte::RbAllocation::from_words(w0, w1);
}

void encode_ul_dci(WireEncoder& enc, int field, const lte::UlDci& dci) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, dci.rnti);
  enc.field_varint(2, dci.rbs.word(0));
  if (dci.rbs.word(1) != 0) enc.field_varint(3, dci.rbs.word(1));
  enc.field_varint(4, static_cast<std::uint64_t>(dci.mcs));
  enc.end_message(mark);
}

void decode_ul_dci(WireDecoder& dec, lte::UlDci& out) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: w0 = dec.varint(); break;
      case 3: w1 = dec.varint(); break;
      case 4: dec.read(out.mcs); break;
      default: dec.skip();
    }
  }
  out.rbs = lte::RbAllocation::from_words(w0, w1);
}

}  // namespace

void DlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_dl_dci(enc, 3, dci);
}

Status DlMacConfig::decode_body_into(std::span<const std::uint8_t> data, DlMacConfig& out) {
  out.cell_id = 0;
  out.target_subframe = 0;
  std::size_t n = 0;
  WireDecoder dec(data);
  dec.fields(fields_through(3), [&]<bool kPeeked>(std::uint64_t tag) {
    switch (tag) {
      case tag_byte(1, WireType::varint): return dec.read<kPeeked>(tag, out.cell_id);
      case tag_byte(2, WireType::varint):
        dec.take<kPeeked>(tag);
        out.target_subframe = dec.svarint();
        return true;
      case tag_byte(3, WireType::length_delimited):
        dec.take<kPeeked>(tag);
        if (n == out.dcis.size()) out.dcis.emplace_back();
        out.dcis[n] = lte::DlDci{};
        dec.message(out.dcis[n++], decode_dl_dci);
        return true;
      default: return false;
    }
  });
  if (!dec.ok()) return dec.status();
  out.dcis.resize(n);
  return {};
}

void UlMacConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_svarint(2, target_subframe);
  for (const auto& dci : dcis) encode_ul_dci(enc, 3, dci);
}

Status UlMacConfig::decode_body_into(std::span<const std::uint8_t> data, UlMacConfig& out) {
  out.cell_id = 0;
  out.target_subframe = 0;
  std::size_t n = 0;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: out.target_subframe = dec.svarint(); break;
      case 3:
        if (n == out.dcis.size()) out.dcis.emplace_back();
        out.dcis[n] = lte::UlDci{};
        dec.message(out.dcis[n++], decode_ul_dci);
        break;
      default: dec.skip();
    }
  }
  if (!dec.ok()) return dec.status();
  out.dcis.resize(n);
  return {};
}

void HandoverCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, source_cell);
  enc.field_varint(3, target_cell);
}

Result<HandoverCommand> HandoverCommand::decode_body(std::span<const std::uint8_t> data) {
  HandoverCommand out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: dec.read(out.source_cell); break;
      case 3: dec.read(out.target_cell); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void AbsConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, pattern.to_bits());
  enc.field_bool(3, mute_during_abs);
}

Result<AbsConfig> AbsConfig::decode_body(std::span<const std::uint8_t> data) {
  AbsConfig out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: out.pattern = lte::AbsPattern::from_bits(dec.varint()); break;
      case 3: dec.read(out.mute_during_abs); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void CarrierRestriction::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, cell_id);
  enc.field_varint(2, max_dl_prbs);
}

Result<CarrierRestriction> CarrierRestriction::decode_body(std::span<const std::uint8_t> data) {
  CarrierRestriction out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: dec.read(out.max_dl_prbs); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void DrxConfig::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_varint(2, cycle_ttis);
  enc.field_varint(3, on_duration_ttis);
}

Result<DrxConfig> DrxConfig::decode_body(std::span<const std::uint8_t> data) {
  DrxConfig out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: dec.read(out.cycle_ttis); break;
      case 3: dec.read(out.on_duration_ttis); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void ScellCommand::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, rnti);
  enc.field_bool(2, activate);
}

Result<ScellCommand> ScellCommand::decode_body(std::span<const std::uint8_t> data) {
  ScellCommand out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: dec.read(out.activate); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// ------------------------------------------------------------------- events

void EventNotification::encode_body(WireEncoder& enc) const {
  enc.field_varint(1, static_cast<std::uint64_t>(event));
  enc.field_svarint(2, subframe);
  if (rnti != lte::kInvalidRnti) enc.field_varint(3, rnti);
  if (cell_id != 0) enc.field_varint(4, cell_id);
  if (xid != 0) enc.field_varint(5, xid);
  if (!module.empty()) enc.field_string(6, module);
  if (!vsf.empty()) enc.field_string(7, vsf);
  if (!implementation.empty()) enc.field_string(8, implementation);
  if (failure_kind != VsfFailureKind::none) {
    enc.field_varint(9, static_cast<std::uint64_t>(failure_kind));
  }
  if (failure_count != 0) enc.field_varint(10, failure_count);
  if (!detail.empty()) enc.field_string(11, detail);
  if (overload_state != 0) enc.field_varint(12, overload_state);
}

Result<EventNotification> EventNotification::decode_body(std::span<const std::uint8_t> data) {
  EventNotification out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.event); break;
      case 2: out.subframe = dec.svarint(); break;
      case 3: dec.read(out.rnti); break;
      case 4: dec.read(out.cell_id); break;
      case 5: dec.read(out.xid); break;
      case 6: dec.read(out.module); break;
      case 7: dec.read(out.vsf); break;
      case 8: dec.read(out.implementation); break;
      case 9: dec.read(out.failure_kind); break;
      case 10: dec.read(out.failure_count); break;
      case 11: dec.read(out.detail); break;
      case 12: dec.read(out.overload_state); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void EventSubscription::encode_body(WireEncoder& enc) const {
  for (const auto event : events) enc.field_varint(1, static_cast<std::uint64_t>(event));
  enc.field_bool(2, enable);
}

Result<EventSubscription> EventSubscription::decode_body(std::span<const std::uint8_t> data) {
  EventSubscription out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.events.emplace_back()); break;
      case 2: dec.read(out.enable); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

// --------------------------------------------------------------- delegation

void ControlDelegation::encode_body(WireEncoder& enc) const {
  enc.field_string(1, module);
  enc.field_string(2, vsf);
  enc.field_string(3, implementation);
  enc.field_varint(4, version);
  if (!blob.empty()) enc.field_bytes(5, blob);
}

Result<ControlDelegation> ControlDelegation::decode_body(std::span<const std::uint8_t> data) {
  ControlDelegation out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.module); break;
      case 2: dec.read(out.vsf); break;
      case 3: dec.read(out.implementation); break;
      case 4: dec.read(out.version); break;
      case 5: {
        const auto blob = dec.bytes();
        out.blob.assign(blob.begin(), blob.end());
        break;
      }
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

void PolicyReconfiguration::encode_body(WireEncoder& enc) const { enc.field_string(1, yaml); }

Result<PolicyReconfiguration> PolicyReconfiguration::decode_body(
    std::span<const std::uint8_t> data) {
  PolicyReconfiguration out;
  WireDecoder dec(data);
  while (dec.next()) {
    if (dec.field() == 1) {
      dec.read(out.yaml);
    } else {
      dec.skip();
    }
  }
  return dec.finish(std::move(out));
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
