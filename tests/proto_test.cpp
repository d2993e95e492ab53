#include <gtest/gtest.h>

#include <algorithm>

#include "net/framing.h"
#include "proto/accounting.h"
#include "proto/checkpoint.h"
#include "proto/messages.h"
#include "proto/wire.h"

namespace flexran::proto {
namespace {

// ------------------------------------------------------------------- wire --

TEST(Wire, VarintRoundTrip) {
  WireEncoder enc;
  enc.varint(0);
  enc.varint(127);
  enc.varint(128);
  enc.varint(300);
  enc.varint(0xffffffffffffffffull);
  WireDecoder dec(enc.bytes());
  EXPECT_EQ(dec.varint_raw(), 0u);
  EXPECT_EQ(dec.varint_raw(), 127u);
  EXPECT_EQ(dec.varint_raw(), 128u);
  EXPECT_EQ(dec.varint_raw(), 300u);
  EXPECT_EQ(dec.varint_raw(), 0xffffffffffffffffull);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.done());
}

TEST(Wire, VarintCompactness) {
  // Protobuf wire-size property the Fig. 7 results rely on: small values
  // cost one byte.
  WireEncoder enc;
  enc.varint(1);
  EXPECT_EQ(enc.size(), 1u);
  WireEncoder enc2;
  enc2.varint(127);
  EXPECT_EQ(enc2.size(), 1u);
  WireEncoder enc3;
  enc3.varint(128);
  EXPECT_EQ(enc3.size(), 2u);
}

TEST(Wire, ZigzagSmallMagnitudes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (std::int64_t v : {-1000000ll, -5ll, 0ll, 7ll, 123456789ll}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Wire, FieldsWithMixedTypesRoundTrip) {
  WireEncoder enc;
  enc.field_varint(1, 42);
  enc.field_double(2, 3.5);
  enc.field_string(3, "hello");
  // No message carries a fixed32 field, so the encoder writes none; append
  // field 4 as one by hand.
  std::vector<std::uint8_t> wire(enc.bytes().begin(), enc.bytes().end());
  wire.insert(wire.end(), {(4 << 3) | 5, 0xef, 0xbe, 0xad, 0xde});

  WireDecoder dec(wire);
  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.field(), 1);
  EXPECT_EQ(dec.type(), WireType::varint);
  EXPECT_EQ(dec.varint(), 42u);

  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.type(), WireType::fixed64);
  double number = 0;
  dec.read(number);
  EXPECT_DOUBLE_EQ(number, 3.5);

  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.type(), WireType::length_delimited);
  std::string text;
  dec.read(text);
  EXPECT_EQ(text, "hello");

  // The decoder only has to step over a fixed32 field.
  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.field(), 4);
  EXPECT_EQ(dec.type(), WireType::fixed32);
  dec.skip();
  EXPECT_FALSE(dec.next());
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.done());
}

TEST(Wire, SkipUnknownFields) {
  WireEncoder enc;
  enc.field_varint(9, 1);
  enc.field_string(10, "unknown");
  enc.field_double(11, 2.0);
  enc.field_varint(1, 7);

  WireDecoder dec(enc.bytes());
  std::uint64_t found = 0;
  while (dec.next()) {
    if (dec.field() == 1) {
      found = dec.varint();
    } else {
      dec.skip();
    }
  }
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(found, 7u);
}

TEST(Wire, TruncatedInputFails) {
  WireEncoder enc;
  enc.field_string(1, "payload");
  const auto bytes = enc.take();
  const auto truncated = std::span(bytes).first(bytes.size() - 3);  // cut into the string
  WireDecoder dec(truncated);
  ASSERT_TRUE(dec.next());
  std::string text;
  dec.read(text);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.error(), DecodeError::truncated);
  EXPECT_EQ(dec.error_field(), 1);
  EXPECT_FALSE(dec.next());
}

TEST(Wire, MalformedVarintFails) {
  std::vector<std::uint8_t> bad(11, 0x80);  // never terminates
  WireDecoder dec(bad);
  (void)dec.varint_raw();
  EXPECT_EQ(dec.error(), DecodeError::varint_too_long);
  EXPECT_FALSE(dec.status().ok());
}

// --------------------------------------------------------------- envelope --

TEST(Envelope, RoundTrip) {
  Hello hello;
  hello.enb_id = 17;
  hello.name = "enb-17";
  hello.n_cells = 1;
  hello.capabilities = {"mac", "rrc"};

  const auto wire = pack(hello, /*xid=*/99);
  auto envelope = Envelope::decode(wire);
  ASSERT_TRUE(envelope.ok()) << envelope.error().message;
  EXPECT_EQ(envelope->version, kProtocolVersion);
  EXPECT_EQ(envelope->type, MessageType::hello);
  EXPECT_EQ(envelope->xid, 99u);

  auto decoded = unpack<Hello>(*envelope);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->enb_id, 17u);
  EXPECT_EQ(decoded->name, "enb-17");
  ASSERT_EQ(decoded->capabilities.size(), 2u);
  EXPECT_EQ(decoded->capabilities[1], "rrc");
}

TEST(Envelope, QueueStatusAndThrottleHintRoundTrip) {
  EchoRequest req{.subframe = 7, .timestamp_us = 42};
  WireEncoder body;
  req.encode_body(body);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  envelope.body = body.take();
  envelope.queue_status = 2;
  envelope.throttle_hint = 8;
  auto decoded = Envelope::decode(envelope.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->queue_status, 2u);
  EXPECT_EQ(decoded->throttle_hint, 8u);

  // Defaults stay off the wire: a normal-state envelope is byte-identical
  // to the pre-overload encoding.
  const auto plain = pack(req);
  auto plain_decoded = Envelope::decode(plain);
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_EQ(plain_decoded->queue_status, 0u);
  EXPECT_EQ(plain_decoded->throttle_hint, 0u);
  Envelope unset;
  unset.type = MessageType::echo_request;
  WireEncoder body2;
  req.encode_body(body2);
  unset.body = body2.take();
  EXPECT_EQ(unset.encode(), plain);
}

TEST(Envelope, TypeMismatchRejected) {
  const auto wire = pack(EchoRequest{.subframe = 1, .timestamp_us = 2});
  auto envelope = Envelope::decode(wire);
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(unpack<Hello>(*envelope).ok());
}

TEST(Envelope, GarbageRejected) {
  std::vector<std::uint8_t> garbage = {0xff, 0xfe, 0x01, 0x99};
  EXPECT_FALSE(Envelope::decode(garbage).ok());
}

// --------------------------------------------------------------- messages --

TEST(Messages, EchoCarriesSyncInfo) {
  EchoRequest req{.subframe = 12345, .timestamp_us = 777};
  auto envelope = Envelope::decode(pack(req)).value();
  auto decoded = unpack<EchoRequest>(envelope).value();
  EXPECT_EQ(decoded.subframe, 12345);
  EXPECT_EQ(decoded.timestamp_us, 777);

  EchoReply rep{.subframe = 12346, .echoed_timestamp_us = 777};
  auto rep2 = unpack<EchoReply>(Envelope::decode(pack(rep)).value()).value();
  EXPECT_EQ(rep2.subframe, 12346);
}

TEST(Messages, EnbConfigReplyRoundTrip) {
  lte::CellConfig cell;
  cell.cell_id = 3;
  cell.bandwidth_mhz = 10.0;
  cell.tx_mode = lte::TransmissionMode::tm1_single_antenna;
  cell.band = 5;
  cell.pci = 101;

  EnbConfigReply reply;
  reply.enb_id = 7;
  reply.cells.push_back(CellConfigMsg::from(cell));

  auto decoded = unpack<EnbConfigReply>(Envelope::decode(pack(reply)).value()).value();
  ASSERT_EQ(decoded.cells.size(), 1u);
  const auto restored = decoded.cells[0].to_cell_config();
  EXPECT_EQ(restored.cell_id, 3u);
  EXPECT_DOUBLE_EQ(restored.bandwidth_mhz, 10.0);
  EXPECT_EQ(restored.pci, 101);
  EXPECT_EQ(restored.dl_prbs(), 50);
}

TEST(Messages, UeAndLcConfigRoundTrip) {
  UeConfigReply ues;
  ues.ues.push_back(UeConfigMsg{.rnti = 0x4601, .primary_cell = 1, .tx_mode = 1,
                                .ue_category = 4, .carrier_aggregation = false});
  auto ue2 = unpack<UeConfigReply>(Envelope::decode(pack(ues)).value()).value();
  ASSERT_EQ(ue2.ues.size(), 1u);
  EXPECT_EQ(ue2.ues[0].rnti, 0x4601);
  EXPECT_EQ(ue2.ues[0].to_ue_config().ue_category, 4);

  LcConfigReply lcs;
  lcs.channels.push_back({.rnti = 0x4601, .lcid = 3, .lc_group = 2});
  lcs.channels.push_back({.rnti = 0x4602, .lcid = 1, .lc_group = 0});
  auto lc2 = unpack<LcConfigReply>(Envelope::decode(pack(lcs)).value()).value();
  ASSERT_EQ(lc2.channels.size(), 2u);
  EXPECT_EQ(lc2.channels[1].rnti, 0x4602);
  EXPECT_EQ(lc2.channels[0].lc_group, 2);
}

TEST(Messages, StatsRequestRoundTrip) {
  StatsRequest req;
  req.request_id = 5;
  req.mode = ReportMode::periodic;
  req.periodicity_ttis = 2;
  req.flags = stats_flags::kBsr | stats_flags::kCqi;
  req.ues = {10, 11, 12};

  auto decoded = unpack<StatsRequest>(Envelope::decode(pack(req)).value()).value();
  EXPECT_EQ(decoded.mode, ReportMode::periodic);
  EXPECT_EQ(decoded.periodicity_ttis, 2u);
  EXPECT_EQ(decoded.flags, (stats_flags::kBsr | stats_flags::kCqi));
  ASSERT_EQ(decoded.ues.size(), 3u);
  EXPECT_EQ(decoded.ues[2], 12);
}

TEST(Messages, StatsReplyRoundTrip) {
  StatsReply reply;
  reply.request_id = 5;
  reply.subframe = 1000;
  UeStatsReport ue;
  ue.rnti = 70;
  ue.bsr_bytes = {100, 0, 2000, 0};
  ue.phr_db = -3;
  ue.wb_cqi = 12;
  ue.rlc_queue_bytes = 2100;
  ue.pending_harq = 2;
  ue.dl_bytes_delivered = 1234567;
  reply.ue_reports.push_back(ue);
  CellStatsReport cell;
  cell.cell_id = 1;
  cell.noise_interference_dbm = -95.5;
  cell.dl_prbs_in_use = 48;
  cell.active_ues = 16;
  reply.cell_reports.push_back(cell);

  auto decoded = unpack<StatsReply>(Envelope::decode(pack(reply)).value()).value();
  ASSERT_EQ(decoded.ue_reports.size(), 1u);
  const auto& u = decoded.ue_reports[0];
  EXPECT_EQ(u.rnti, 70);
  EXPECT_EQ(u.bsr_bytes[2], 2000u);
  EXPECT_EQ(u.total_bsr(), 2100u);
  EXPECT_EQ(u.phr_db, -3);
  EXPECT_EQ(u.wb_cqi, 12);
  EXPECT_EQ(u.dl_bytes_delivered, 1234567u);
  ASSERT_EQ(decoded.cell_reports.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.cell_reports[0].noise_interference_dbm, -95.5);
  EXPECT_EQ(decoded.cell_reports[0].dl_prbs_in_use, 48u);
}

TEST(Messages, DlMacConfigRoundTrip) {
  lte::SchedulingDecision decision;
  decision.cell_id = 2;
  decision.subframe = 4321;
  lte::DlDci dci;
  dci.rnti = 0x4601;
  dci.rbs.set_range(0, 25);
  dci.mcs = 20;
  dci.harq_pid = 5;
  dci.new_data = false;
  decision.dl.push_back(dci);
  lte::DlDci dci2;
  dci2.rnti = 0x4602;
  dci2.rbs.set_range(25, 25);
  dci2.mcs = 10;
  decision.dl.push_back(dci2);

  const DlMacConfig msg{
      .cell_id = decision.cell_id, .target_subframe = decision.subframe, .dcis = decision.dl};
  DlMacConfig decoded;
  ASSERT_TRUE(DlMacConfig::decode_body_into(Envelope::decode(pack(msg)).value().body, decoded).ok());
  EXPECT_EQ(decoded.cell_id, 2u);
  EXPECT_EQ(decoded.target_subframe, 4321);
  ASSERT_EQ(decoded.dcis.size(), 2u);
  EXPECT_EQ(decoded.dcis[0].rnti, 0x4601);
  EXPECT_EQ(decoded.dcis[0].rbs.count(), 25);
  EXPECT_EQ(decoded.dcis[0].harq_pid, 5);
  EXPECT_FALSE(decoded.dcis[0].new_data);
  EXPECT_TRUE(decoded.dcis[1].rbs.test(30));
  EXPECT_FALSE(decoded.dcis[1].rbs.overlaps(decoded.dcis[0].rbs));
}

TEST(Messages, UlMacConfigRoundTrip) {
  UlMacConfig msg;
  msg.cell_id = 1;
  msg.target_subframe = 99;
  lte::UlDci dci;
  dci.rnti = 40;
  dci.rbs.set_range(10, 6);
  dci.mcs = 12;
  msg.dcis.push_back(dci);
  UlMacConfig decoded;
  ASSERT_TRUE(UlMacConfig::decode_body_into(Envelope::decode(pack(msg)).value().body, decoded).ok());
  ASSERT_EQ(decoded.dcis.size(), 1u);
  EXPECT_EQ(decoded.dcis[0].rbs.count(), 6);
  EXPECT_EQ(decoded.dcis[0].mcs, 12);
}

TEST(Messages, HandoverAndAbsRoundTrip) {
  HandoverCommand ho{.rnti = 55, .source_cell = 1, .target_cell = 2};
  auto ho2 = unpack<HandoverCommand>(Envelope::decode(pack(ho)).value()).value();
  EXPECT_EQ(ho2.target_cell, 2u);

  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(4);
  abs.mute_during_abs = true;
  auto abs2 = unpack<AbsConfig>(Envelope::decode(pack(abs)).value()).value();
  EXPECT_EQ(abs2.pattern, abs.pattern);
  EXPECT_TRUE(abs2.pattern.is_abs(2));
  EXPECT_TRUE(abs2.mute_during_abs);
}

TEST(Messages, EventNotificationRoundTrip) {
  EventNotification ev;
  ev.event = EventType::ue_attach;
  ev.subframe = 500;
  ev.rnti = 33;
  ev.cell_id = 2;
  auto ev2 = unpack<EventNotification>(Envelope::decode(pack(ev)).value()).value();
  EXPECT_EQ(ev2.event, EventType::ue_attach);
  EXPECT_EQ(ev2.rnti, 33);
  EXPECT_EQ(ev2.cell_id, 2u);
}

TEST(Messages, DelegationRoundTrip) {
  ControlDelegation del;
  del.module = "mac";
  del.vsf = "dl_ue_scheduler";
  del.implementation = "local_pf";
  del.version = 3;
  del.blob = {1, 2, 3, 4};
  auto del2 = unpack<ControlDelegation>(Envelope::decode(pack(del)).value()).value();
  EXPECT_EQ(del2.module, "mac");
  EXPECT_EQ(del2.vsf, "dl_ue_scheduler");
  EXPECT_EQ(del2.implementation, "local_pf");
  EXPECT_EQ(del2.version, 3u);
  EXPECT_EQ(del2.blob, (std::vector<std::uint8_t>{1, 2, 3, 4}));

  PolicyReconfiguration pol;
  pol.yaml = "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n";
  auto pol2 = unpack<PolicyReconfiguration>(Envelope::decode(pack(pol)).value()).value();
  EXPECT_EQ(pol2.yaml, pol.yaml);
}

// ------------------------------------------------------------- categories --

TEST(Categories, SubframeTickIsSync) {
  EventNotification tick;
  tick.event = EventType::subframe_tick;
  tick.subframe = 1;
  auto envelope = Envelope::decode(pack(tick)).value();
  EXPECT_EQ(classify(envelope.type, envelope.body).category, MessageCategory::sync);

  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 1;
  auto envelope2 = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(classify(envelope2.type, envelope2.body).category,
            MessageCategory::agent_management);
}

TEST(Categories, ByMessageType) {
  EXPECT_EQ(categorize(MessageType::stats_reply), MessageCategory::stats);
  EXPECT_EQ(categorize(MessageType::dl_mac_config), MessageCategory::commands);
  EXPECT_EQ(categorize(MessageType::control_delegation), MessageCategory::delegation);
  EXPECT_EQ(categorize(MessageType::hello), MessageCategory::agent_management);
  EXPECT_EQ(categorize(MessageType::echo_reply), MessageCategory::agent_management);
}

TEST(TrafficClasses, ByMessageType) {
  using net::TrafficClass;
  EXPECT_EQ(traffic_class(MessageType::hello), TrafficClass::session);
  EXPECT_EQ(traffic_class(MessageType::echo_reply), TrafficClass::session);
  EXPECT_EQ(traffic_class(MessageType::dl_mac_config), TrafficClass::command);
  EXPECT_EQ(traffic_class(MessageType::policy_reconfiguration), TrafficClass::command);
  EXPECT_EQ(traffic_class(MessageType::stats_request), TrafficClass::config);
  EXPECT_EQ(traffic_class(MessageType::enb_config_reply), TrafficClass::config);
  EXPECT_EQ(traffic_class(MessageType::stats_reply), TrafficClass::stats);

  EventNotification tick;
  tick.event = EventType::subframe_tick;
  auto tick_env = Envelope::decode(pack(tick)).value();
  EXPECT_EQ(classify(tick_env.type, tick_env.body).traffic_class, TrafficClass::sync);

  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 9;
  auto attach_env = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(classify(attach_env.type, attach_env.body).traffic_class, TrafficClass::event);

  // Only event triggers, sync ticks and stats are sheddable.
  EXPECT_FALSE(net::sheddable(TrafficClass::session));
  EXPECT_FALSE(net::sheddable(TrafficClass::command));
  EXPECT_FALSE(net::sheddable(TrafficClass::config));
  EXPECT_TRUE(net::sheddable(TrafficClass::event));
  EXPECT_TRUE(net::sheddable(TrafficClass::sync));
  EXPECT_TRUE(net::sheddable(TrafficClass::stats));
}

// ----------------------------------------------------- aggregation savings --

TEST(WireSize, AggregatedStatsReportBeatsPerUeMessages) {
  // Fig. 7a sublinearity: one StatsReply carrying N UE reports is much
  // smaller than N separate single-UE replies (envelope and header
  // amortization).
  auto make_report = [](lte::Rnti rnti) {
    UeStatsReport ue;
    ue.rnti = rnti;
    ue.bsr_bytes = {1000, 0, 0, 0};
    ue.wb_cqi = 10;
    ue.rlc_queue_bytes = 1000;
    return ue;
  };

  StatsReply aggregated;
  aggregated.subframe = 1000;
  std::size_t separate_bytes = 0;
  for (lte::Rnti rnti = 1; rnti <= 50; ++rnti) {
    aggregated.ue_reports.push_back(make_report(rnti));
    StatsReply single;
    single.subframe = 1000;
    single.ue_reports.push_back(make_report(rnti));
    separate_bytes += pack(single).size();
  }
  const std::size_t aggregated_bytes = pack(aggregated).size();
  EXPECT_LT(aggregated_bytes, separate_bytes);
  // Per-UE marginal cost must be well under the standalone message cost.
  const double marginal = static_cast<double>(aggregated_bytes) / 50.0;
  const double standalone = static_cast<double>(separate_bytes) / 50.0;
  EXPECT_LT(marginal, 0.8 * standalone);
}

TEST(WireSize, EmptyDciListIsTiny) {
  DlMacConfig msg;
  msg.cell_id = 1;
  msg.target_subframe = 1;
  EXPECT_LT(pack(msg).size(), 16u);
}

// ----------------------------------------------------- timestamp echo --

TEST(Envelope, TimestampEchoRoundTrip) {
  EchoRequest req{.subframe = 3, .timestamp_us = 5};
  WireEncoder body;
  req.encode_body(body);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  envelope.body = body.take();
  envelope.ts_us = 123456789;
  envelope.ts_echo_us = 42;
  auto decoded = Envelope::decode(envelope.encode());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded->ts_us, 123456789u);
  EXPECT_EQ(decoded->ts_echo_us, 42u);
}

TEST(Envelope, DecodeIntoADirtyEnvelopeMatchesDecode) {
  // The ingest slot still holds the previous message: every field of it
  // must be reset, and the body replaced, not appended to.
  Envelope previous;
  previous.type = MessageType::stats_reply;
  previous.xid = 77;
  previous.epoch = 5;
  previous.queue_status = 2;
  previous.throttle_hint = 4;
  previous.ts_us = 9;
  previous.ts_echo_us = 123456;
  previous.master_epoch = 3;
  previous.retry_after_ms = 250;
  previous.body.assign(64, 0x2a);
  Envelope slot;
  ASSERT_TRUE(Envelope::decode_into(previous.encode(), slot).ok());
  ASSERT_EQ(slot.body.size(), 64u);

  Hello hello;
  hello.enb_id = 2;
  hello.name = "b";
  for (const auto& wire : {pack(EchoRequest{.subframe = 3, .timestamp_us = 5}),
                           pack(hello, /*xid=*/8), pack(EchoReply{})}) {
    ASSERT_TRUE(Envelope::decode_into(wire, slot).ok());
    const auto fresh = Envelope::decode(wire).value();
    EXPECT_EQ(slot.version, fresh.version);
    EXPECT_EQ(slot.type, fresh.type);
    EXPECT_EQ(slot.xid, fresh.xid);
    EXPECT_EQ(slot.epoch, fresh.epoch);
    EXPECT_EQ(slot.queue_status, fresh.queue_status);
    EXPECT_EQ(slot.throttle_hint, fresh.throttle_hint);
    EXPECT_EQ(slot.ts_us, fresh.ts_us);
    EXPECT_EQ(slot.ts_echo_us, fresh.ts_echo_us);
    EXPECT_EQ(slot.master_epoch, fresh.master_epoch);
    EXPECT_EQ(slot.retry_after_ms, fresh.retry_after_ms);
    EXPECT_EQ(slot.body, fresh.body);
    EXPECT_EQ(slot.encode(), fresh.encode());
  }
}

TEST(Envelope, TimestampFieldsOmittedWhenZero) {
  // Observability off must be wire-identical to the seed encoding: the
  // zero-valued timestamp fields stay off the wire entirely.
  EchoRequest req{.subframe = 3, .timestamp_us = 5};
  const auto plain = pack(req);
  Envelope envelope;
  envelope.type = MessageType::echo_request;
  WireEncoder body;
  req.encode_body(body);
  envelope.body = body.take();
  envelope.ts_us = 0;
  envelope.ts_echo_us = 0;
  EXPECT_EQ(envelope.encode(), plain);
  auto decoded = Envelope::decode(plain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ts_us, 0u);
  EXPECT_EQ(decoded->ts_echo_us, 0u);
}

// ------------------------------------------------------- accounting --

TEST(Accounting, BucketsPerCategory) {
  SignalingAccountant accountant;
  accountant.record(MessageCategory::stats, 100);
  accountant.record(MessageCategory::stats, 50);
  accountant.record(MessageCategory::sync, 7);
  accountant.record(MessageCategory::commands, 20);
  accountant.record(MessageCategory::delegation, 300);
  accountant.record(MessageCategory::agent_management, 1);

  EXPECT_EQ(accountant.bytes(MessageCategory::stats), 150u);
  EXPECT_EQ(accountant.messages(MessageCategory::stats), 2u);
  EXPECT_EQ(accountant.bytes(MessageCategory::sync), 7u);
  EXPECT_EQ(accountant.messages(MessageCategory::sync), 1u);
  EXPECT_EQ(accountant.bytes(MessageCategory::commands), 20u);
  EXPECT_EQ(accountant.bytes(MessageCategory::delegation), 300u);
  EXPECT_EQ(accountant.bytes(MessageCategory::agent_management), 1u);
  EXPECT_EQ(accountant.total_bytes(), 478u);
  EXPECT_EQ(accountant.total_messages(), 6u);
}

TEST(Accounting, FrameHeaderConvention) {
  // Both master and agent record `wire.size() + net::kFrameHeaderBytes` per
  // message, so accounted bytes equal the framed bytes that actually cross
  // the control link (the Fig. 7 reconciliation invariant).
  const auto wire = pack(EchoRequest{.subframe = 1, .timestamp_us = 2});
  SignalingAccountant accountant;
  accountant.record(categorize(MessageType::echo_request),
                    wire.size() + net::kFrameHeaderBytes);
  EXPECT_EQ(accountant.total_bytes(), wire.size() + net::kFrameHeaderBytes);
}

TEST(Accounting, CategorizeIsBodyDependentForEvents) {
  // The retry-path bug this PR fixes: re-categorizing a request with an
  // EMPTY body instead of its real body gives the wrong bucket for
  // body-dependent types. A ue_attach notification is agent management,
  // but classifying an empty body (whose event field is absent and so
  // defaults to subframe_tick) mis-buckets it as sync. Retries must reuse
  // the category computed from the real body at enqueue time.
  EventNotification attach;
  attach.event = EventType::ue_attach;
  attach.rnti = 4;
  auto envelope = Envelope::decode(pack(attach)).value();
  EXPECT_EQ(classify(envelope.type, envelope.body).category, MessageCategory::agent_management);
  EXPECT_EQ(classify(envelope.type, {}).category, MessageCategory::sync);
}

// ------------------------------------------- wire fast path (zero-alloc) --
// docs/wire_fastpath.md: the arena/backpatch encoder and the reuse APIs
// must be byte-identical to the legacy fresh-encoder paths on every
// top-level message type.

// pack() via a reused scratch encoder (cleared between messages, after
// encoding unrelated garbage) must produce exactly pack()'s bytes.
template <typename M>
void expect_reused_encoder_identical(const M& message) {
  const auto fresh = pack(message, /*xid=*/9);
  WireEncoder scratch;
  // Dirty the scratch with an unrelated message first, as a long-lived
  // per-link encoder would be.
  Envelope dirty_header;
  dirty_header.xid = 1;
  encode_envelope(scratch, dirty_header, EchoRequest{.subframe = 7, .timestamp_us = 8});
  scratch.clear();
  Envelope header;
  header.xid = 9;
  encode_envelope(scratch, header, message);
  const auto reused = scratch.bytes();
  ASSERT_EQ(reused.size(), fresh.size()) << to_string(M::kType);
  EXPECT_TRUE(std::equal(reused.begin(), reused.end(), fresh.begin())) << to_string(M::kType);
}

TEST(WireFastPath, ReusedEncoderMatchesFreshAcrossAllMessageTypes) {
  expect_reused_encoder_identical(Hello{.enb_id = 3, .name = "enb", .capabilities = {"mac"}});
  expect_reused_encoder_identical(EchoRequest{.subframe = 42, .timestamp_us = 777});
  expect_reused_encoder_identical(EchoReply{.subframe = 42, .echoed_timestamp_us = 777});
  expect_reused_encoder_identical(EnbConfigRequest{});
  EnbConfigReply enb_reply;
  enb_reply.enb_id = 2;
  enb_reply.cells.push_back(CellConfigMsg::from(lte::CellConfig{}));
  expect_reused_encoder_identical(enb_reply);
  expect_reused_encoder_identical(UeConfigRequest{});
  UeConfigReply ue_reply;
  ue_reply.ues.push_back(UeConfigMsg{.rnti = 70, .primary_cell = 1});
  expect_reused_encoder_identical(ue_reply);
  expect_reused_encoder_identical(LcConfigRequest{});
  LcConfigReply lc_reply;
  lc_reply.channels.push_back(LcConfigMsg{.rnti = 70});
  expect_reused_encoder_identical(lc_reply);
  StatsRequest stats_request;
  stats_request.request_id = 4;
  stats_request.mode = ReportMode::periodic;
  stats_request.ues = {70, 71};
  expect_reused_encoder_identical(stats_request);
  StatsReply stats_reply;
  stats_reply.request_id = 4;
  stats_reply.subframe = 999;
  UeStatsReport report;
  report.rnti = 70;
  report.bsr_bytes = {1, 2, 3, 4};
  report.rsrp.push_back({1, -91.25});
  stats_reply.ue_reports.push_back(report);
  stats_reply.cell_reports.push_back(CellStatsReport{.cell_id = 1, .active_ues = 1});
  expect_reused_encoder_identical(stats_reply);
  DlMacConfig dl;
  dl.cell_id = 1;
  dl.target_subframe = 88;
  lte::DlDci dci;
  dci.rnti = 70;
  dci.rbs.set_range(0, 10);
  dci.mcs = 15;
  dl.dcis.push_back(dci);
  expect_reused_encoder_identical(dl);
  UlMacConfig ul;
  ul.cell_id = 1;
  lte::UlDci ul_dci;
  ul_dci.rnti = 70;
  ul_dci.rbs.set_range(4, 4);
  ul.dcis.push_back(ul_dci);
  expect_reused_encoder_identical(ul);
  expect_reused_encoder_identical(
      HandoverCommand{.rnti = 70, .source_cell = 1, .target_cell = 2});
  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(4);
  expect_reused_encoder_identical(abs);
  expect_reused_encoder_identical(CarrierRestriction{.cell_id = 1, .max_dl_prbs = 50});
  expect_reused_encoder_identical(DrxConfig{.rnti = 70, .cycle_ttis = 64});
  expect_reused_encoder_identical(ScellCommand{.rnti = 70, .activate = false});
  EventNotification event;
  event.event = EventType::vsf_failure;
  event.module = "mac";
  event.vsf = "dl_ue_scheduler";
  event.implementation = "remote";
  event.failure_kind = VsfFailureKind::overrun;
  event.failure_count = 2;
  event.detail = "deadline";
  expect_reused_encoder_identical(event);
  EventSubscription subscription;
  subscription.events = {EventType::ue_attach, EventType::ue_detach};
  expect_reused_encoder_identical(subscription);
  ControlDelegation delegation;
  delegation.module = "mac";
  delegation.vsf = "dl_ue_scheduler";
  delegation.implementation = "local_pf";
  delegation.blob = {1, 2, 3};
  expect_reused_encoder_identical(delegation);
  expect_reused_encoder_identical(PolicyReconfiguration{.yaml = "mac: {}"});
}

TEST(WireFastPath, BackpatchWritesMinimalLengthPrefixAcrossBoundary) {
  // Nested payloads around the 1-byte/2-byte length-prefix boundary (127 /
  // 128) and the 2-byte/3-byte one (16383 / 16384): begin/end_message must
  // widen the placeholder to exactly the minimal varint of the length.
  struct Case {
    std::size_t entries;  // 2-byte field_varint entries in the payload
    std::vector<std::uint8_t> prefix;
  };
  const Case cases[] = {
      {0, {0x00}},        {1, {0x02}},        {63, {0x7e}},
      {64, {0x80, 0x01}}, {65, {0x82, 0x01}}, {8191, {0xfe, 0x7f}},
      {8192, {0x80, 0x80, 0x01}},
  };
  for (const auto& c : cases) {
    WireEncoder arena;
    const auto mark = arena.begin_message(7);
    for (std::size_t i = 0; i < c.entries; ++i) arena.field_varint(1, 0x5a);
    arena.end_message(mark);

    std::vector<std::uint8_t> expected{0x3a};  // field 7, length-delimited
    expected.insert(expected.end(), c.prefix.begin(), c.prefix.end());
    for (std::size_t i = 0; i < c.entries; ++i) {
      expected.push_back(0x08);
      expected.push_back(0x5a);
    }
    const auto a = arena.bytes();
    ASSERT_EQ(a.size(), expected.size()) << "entries=" << c.entries;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), expected.begin())) << "entries=" << c.entries;
  }
}

TEST(WireFastPath, DecodeIntoMatchesFreshDecode) {
  StatsReply reply;
  reply.request_id = 6;
  reply.subframe = 2000;
  for (lte::Rnti rnti = 70; rnti < 74; ++rnti) {
    UeStatsReport report;
    report.rnti = rnti;
    report.bsr_bytes = {10, 20, 30, 40};
    report.wb_cqi = 11;
    report.rsrp.push_back({1, -100.5});
    reply.ue_reports.push_back(report);
  }
  const auto wire = pack(reply, 3);

  Envelope reused_envelope;
  StatsReply reused_reply;
  // Pre-dirty the reused structs with a different shape (more reports than
  // the incoming message) so stale slots must be trimmed, not leak through.
  ASSERT_TRUE(Envelope::decode_into(pack(EchoRequest{}), reused_envelope).ok());
  for (int i = 0; i < 9; ++i) reused_reply.ue_reports.emplace_back();
  reused_reply.cell_reports.emplace_back();

  ASSERT_TRUE(Envelope::decode_into(wire, reused_envelope).ok());
  ASSERT_TRUE(StatsReply::decode_body_into(reused_envelope.body, reused_reply).ok());

  const auto fresh_envelope = Envelope::decode(wire).value();
  const auto fresh_reply = StatsReply::decode_body(fresh_envelope.body).value();
  EXPECT_EQ(reused_envelope.type, fresh_envelope.type);
  EXPECT_EQ(reused_envelope.xid, fresh_envelope.xid);
  EXPECT_EQ(reused_reply.request_id, fresh_reply.request_id);
  EXPECT_EQ(reused_reply.subframe, fresh_reply.subframe);
  ASSERT_EQ(reused_reply.ue_reports.size(), fresh_reply.ue_reports.size());
  ASSERT_EQ(reused_reply.cell_reports.size(), fresh_reply.cell_reports.size());
  for (std::size_t i = 0; i < fresh_reply.ue_reports.size(); ++i) {
    EXPECT_EQ(reused_reply.ue_reports[i].rnti, fresh_reply.ue_reports[i].rnti);
    EXPECT_EQ(reused_reply.ue_reports[i].bsr_bytes, fresh_reply.ue_reports[i].bsr_bytes);
    ASSERT_EQ(reused_reply.ue_reports[i].rsrp.size(), fresh_reply.ue_reports[i].rsrp.size());
    EXPECT_DOUBLE_EQ(reused_reply.ue_reports[i].rsrp[0].rsrp_dbm,
                     fresh_reply.ue_reports[i].rsrp[0].rsrp_dbm);
  }
}

TEST(WireFastPath, TrailingBsrEntriesAreCountedNotDropped) {
  // S3: a peer modeling more LC groups than kNumLcGroups sends extra
  // field-2 entries. The message must decode (forward compatibility), the
  // first kNumLcGroups entries must land, and the loss must be counted in
  // the decode-anomaly stat instead of vanishing silently.
  WireEncoder body;
  body.field_varint(1, 70);  // rnti
  for (std::uint32_t i = 0; i < lte::kNumLcGroups + 3; ++i) {
    body.field_varint(2, 100 + i);
  }
  body.field_svarint(3, 5);
  body.field_varint(4, 9);
  body.field_varint(5, 1234);
  WireEncoder reply_body;
  reply_body.field_varint(1, 8);   // request_id
  reply_body.field_svarint(2, 1);  // subframe
  reply_body.field_bytes(3, body.bytes());

  const auto before = decode_anomalies().bsr_overflow.load();
  auto decoded = StatsReply::decode_body(reply_body.bytes());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->ue_reports.size(), 1u);
  const auto& ue = decoded->ue_reports[0];
  EXPECT_EQ(ue.rnti, 70);
  for (std::uint32_t i = 0; i < lte::kNumLcGroups; ++i) {
    EXPECT_EQ(ue.bsr_bytes[i], 100 + i);
  }
  EXPECT_EQ(ue.wb_cqi, 9);
  EXPECT_EQ(decode_anomalies().bsr_overflow.load(), before + 3);
}


// ------------------------------------------------- checked-in byte vectors --
// Encoded by the codec as it stood before the sticky-error decoder, and
// pinned here: each must decode, and re-encoding the decoded message must
// give the same bytes back.

constexpr std::uint8_t kEnvelopeBytes[] = {
    0x08, 0x01, 0x10, 0x02, 0x18, 0xac, 0x02, 0x22, 0x05, 0x08, 0x09, 0x10,
    0xc6, 0x01, 0x28, 0x07, 0x30, 0x02, 0x38, 0x04, 0x40, 0xcb, 0x89, 0xec,
    0x8f, 0xf7, 0x23, 0x48, 0xc0, 0xdf, 0xb5, 0x8f, 0xf7, 0x23, 0x50, 0x03,
    0x58, 0xfa, 0x01,
};

constexpr std::uint8_t kStatsReplyBody[] = {
    0x08, 0x09, 0x10, 0x80, 0x80, 0x19, 0x1a, 0x2c, 0x08, 0x46, 0x10, 0x00,
    0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0x00, 0x18, 0x22, 0x20, 0x01, 0x28,
    0x80, 0x20, 0x38, 0xa0, 0x8d, 0x06, 0x40, 0xc0, 0xb8, 0x02, 0x48, 0x0c,
    0x52, 0x06, 0x08, 0x01, 0x10, 0x81, 0x8d, 0x01, 0x52, 0x06, 0x08, 0x02,
    0x10, 0xcb, 0x9e, 0x01, 0x1a, 0x30, 0x08, 0x47, 0x10, 0x0a, 0x10, 0xdc,
    0x0b, 0x10, 0x00, 0x10, 0xc8, 0x01, 0x18, 0x1c, 0x20, 0x02, 0x28, 0x91,
    0x20, 0x30, 0x01, 0x38, 0xa3, 0x8d, 0x06, 0x40, 0xc1, 0xb8, 0x02, 0x58,
    0xac, 0x02, 0x52, 0x06, 0x08, 0x01, 0x10, 0xc9, 0x8e, 0x01, 0x52, 0x06,
    0x08, 0x02, 0x10, 0xe1, 0x9f, 0x01, 0x1a, 0x30, 0x08, 0x48, 0x10, 0x14,
    0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0x90, 0x03, 0x18, 0x16, 0x20, 0x03,
    0x28, 0xa2, 0x20, 0x30, 0x02, 0x38, 0xa6, 0x8d, 0x06, 0x40, 0xc2, 0xb8,
    0x02, 0x58, 0xd8, 0x04, 0x52, 0x06, 0x08, 0x01, 0x10, 0x91, 0x90, 0x01,
    0x52, 0x06, 0x08, 0x02, 0x10, 0xf7, 0xa0, 0x01, 0x1a, 0x32, 0x08, 0x49,
    0x10, 0x1e, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0xd8, 0x04, 0x18, 0x10,
    0x20, 0x04, 0x28, 0xb3, 0x20, 0x30, 0x03, 0x38, 0xa9, 0x8d, 0x06, 0x40,
    0xc3, 0xb8, 0x02, 0x48, 0x0c, 0x58, 0x84, 0x07, 0x52, 0x06, 0x08, 0x01,
    0x10, 0xd9, 0x91, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0x8d, 0xa2, 0x01,
    0x1a, 0x2e, 0x08, 0x4a, 0x10, 0x28, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10,
    0xa0, 0x06, 0x18, 0x0a, 0x20, 0x05, 0x28, 0xc4, 0x20, 0x38, 0xac, 0x8d,
    0x06, 0x40, 0xc4, 0xb8, 0x02, 0x58, 0xb0, 0x09, 0x52, 0x06, 0x08, 0x01,
    0x10, 0xa1, 0x93, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0xa3, 0xa3, 0x01,
    0x1a, 0x30, 0x08, 0x4b, 0x10, 0x32, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10,
    0xe8, 0x07, 0x18, 0x04, 0x20, 0x06, 0x28, 0xd5, 0x20, 0x30, 0x01, 0x38,
    0xaf, 0x8d, 0x06, 0x40, 0xc5, 0xb8, 0x02, 0x58, 0xdc, 0x0b, 0x52, 0x06,
    0x08, 0x01, 0x10, 0xe9, 0x94, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0xb9,
    0xa4, 0x01, 0x1a, 0x32, 0x08, 0x4c, 0x10, 0x3c, 0x10, 0xdc, 0x0b, 0x10,
    0x00, 0x10, 0xb0, 0x09, 0x18, 0x01, 0x20, 0x07, 0x28, 0xe6, 0x20, 0x30,
    0x02, 0x38, 0xb2, 0x8d, 0x06, 0x40, 0xc6, 0xb8, 0x02, 0x48, 0x0c, 0x58,
    0x88, 0x0e, 0x52, 0x06, 0x08, 0x01, 0x10, 0xb1, 0x96, 0x01, 0x52, 0x06,
    0x08, 0x02, 0x10, 0xcf, 0xa5, 0x01, 0x1a, 0x30, 0x08, 0x4d, 0x10, 0x46,
    0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0xf8, 0x0a, 0x18, 0x07, 0x20, 0x08,
    0x28, 0xf7, 0x20, 0x30, 0x03, 0x38, 0xb5, 0x8d, 0x06, 0x40, 0xc7, 0xb8,
    0x02, 0x58, 0xb4, 0x10, 0x52, 0x06, 0x08, 0x01, 0x10, 0xf9, 0x97, 0x01,
    0x52, 0x06, 0x08, 0x02, 0x10, 0xe5, 0xa6, 0x01, 0x1a, 0x2e, 0x08, 0x4e,
    0x10, 0x50, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0xc0, 0x0c, 0x18, 0x0d,
    0x20, 0x09, 0x28, 0x88, 0x21, 0x38, 0xb8, 0x8d, 0x06, 0x40, 0xc8, 0xb8,
    0x02, 0x58, 0xe0, 0x12, 0x52, 0x06, 0x08, 0x01, 0x10, 0xc1, 0x99, 0x01,
    0x52, 0x06, 0x08, 0x02, 0x10, 0xfb, 0xa7, 0x01, 0x1a, 0x32, 0x08, 0x4f,
    0x10, 0x5a, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0x88, 0x0e, 0x18, 0x13,
    0x20, 0x0a, 0x28, 0x99, 0x21, 0x30, 0x01, 0x38, 0xbb, 0x8d, 0x06, 0x40,
    0xc9, 0xb8, 0x02, 0x48, 0x0c, 0x58, 0x8c, 0x15, 0x52, 0x06, 0x08, 0x01,
    0x10, 0x89, 0x9b, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0x91, 0xa9, 0x01,
    0x1a, 0x30, 0x08, 0x50, 0x10, 0x64, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10,
    0xd0, 0x0f, 0x18, 0x19, 0x20, 0x0b, 0x28, 0xaa, 0x21, 0x30, 0x02, 0x38,
    0xbe, 0x8d, 0x06, 0x40, 0xca, 0xb8, 0x02, 0x58, 0xb8, 0x17, 0x52, 0x06,
    0x08, 0x01, 0x10, 0xd1, 0x9c, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0xa7,
    0xaa, 0x01, 0x1a, 0x30, 0x08, 0x51, 0x10, 0x6e, 0x10, 0xdc, 0x0b, 0x10,
    0x00, 0x10, 0x98, 0x11, 0x18, 0x1f, 0x20, 0x0c, 0x28, 0xbb, 0x21, 0x30,
    0x03, 0x38, 0xc1, 0x8d, 0x06, 0x40, 0xcb, 0xb8, 0x02, 0x58, 0xe4, 0x19,
    0x52, 0x06, 0x08, 0x01, 0x10, 0x99, 0x9e, 0x01, 0x52, 0x06, 0x08, 0x02,
    0x10, 0xbd, 0xab, 0x01, 0x1a, 0x30, 0x08, 0x52, 0x10, 0x78, 0x10, 0xdc,
    0x0b, 0x10, 0x00, 0x10, 0xe0, 0x12, 0x18, 0x25, 0x20, 0x0d, 0x28, 0xcc,
    0x21, 0x38, 0xc4, 0x8d, 0x06, 0x40, 0xcc, 0xb8, 0x02, 0x48, 0x0c, 0x58,
    0x90, 0x1c, 0x52, 0x06, 0x08, 0x01, 0x10, 0xe1, 0x9f, 0x01, 0x52, 0x06,
    0x08, 0x02, 0x10, 0xd3, 0xac, 0x01, 0x1a, 0x31, 0x08, 0x53, 0x10, 0x82,
    0x01, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0xa8, 0x14, 0x18, 0x2b, 0x20,
    0x0e, 0x28, 0xdd, 0x21, 0x30, 0x01, 0x38, 0xc7, 0x8d, 0x06, 0x40, 0xcd,
    0xb8, 0x02, 0x58, 0xbc, 0x1e, 0x52, 0x06, 0x08, 0x01, 0x10, 0xa9, 0xa1,
    0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0xe9, 0xad, 0x01, 0x1a, 0x31, 0x08,
    0x54, 0x10, 0x8c, 0x01, 0x10, 0xdc, 0x0b, 0x10, 0x00, 0x10, 0xf0, 0x15,
    0x18, 0x31, 0x20, 0x0f, 0x28, 0xee, 0x21, 0x30, 0x02, 0x38, 0xca, 0x8d,
    0x06, 0x40, 0xce, 0xb8, 0x02, 0x58, 0xe8, 0x20, 0x52, 0x06, 0x08, 0x01,
    0x10, 0xf1, 0xa2, 0x01, 0x52, 0x06, 0x08, 0x02, 0x10, 0xff, 0xae, 0x01,
    0x1a, 0xe3, 0x01, 0x08, 0x55, 0x10, 0x96, 0x01, 0x10, 0xdc, 0x0b, 0x10,
    0x00, 0x10, 0xb8, 0x17, 0x18, 0x37, 0x20, 0x01, 0x28, 0xff, 0x21, 0x30,
    0x03, 0x38, 0xcd, 0x8d, 0x06, 0x40, 0xcf, 0xb8, 0x02, 0x48, 0x0c, 0x58,
    0x94, 0x23, 0x52, 0x06, 0x08, 0x01, 0x10, 0xb9, 0xa4, 0x01, 0x52, 0x06,
    0x08, 0x02, 0x10, 0x95, 0xb0, 0x01, 0x52, 0x06, 0x08, 0x03, 0x10, 0xef,
    0xab, 0x01, 0x52, 0x06, 0x08, 0x04, 0x10, 0xb7, 0xad, 0x01, 0x52, 0x06,
    0x08, 0x05, 0x10, 0xff, 0xae, 0x01, 0x52, 0x06, 0x08, 0x06, 0x10, 0xc7,
    0xb0, 0x01, 0x52, 0x06, 0x08, 0x07, 0x10, 0x8f, 0xb2, 0x01, 0x52, 0x06,
    0x08, 0x08, 0x10, 0xd7, 0xb3, 0x01, 0x52, 0x06, 0x08, 0x09, 0x10, 0x9f,
    0xb5, 0x01, 0x52, 0x06, 0x08, 0x0a, 0x10, 0xe7, 0xb6, 0x01, 0x52, 0x06,
    0x08, 0x0b, 0x10, 0xaf, 0xb8, 0x01, 0x52, 0x06, 0x08, 0x0c, 0x10, 0xf7,
    0xb9, 0x01, 0x52, 0x06, 0x08, 0x0d, 0x10, 0xbf, 0xbb, 0x01, 0x52, 0x06,
    0x08, 0x0e, 0x10, 0x87, 0xbd, 0x01, 0x52, 0x06, 0x08, 0x0f, 0x10, 0xcf,
    0xbe, 0x01, 0x52, 0x06, 0x08, 0x10, 0x10, 0x97, 0xc0, 0x01, 0x52, 0x06,
    0x08, 0x11, 0x10, 0xdf, 0xc1, 0x01, 0x52, 0x06, 0x08, 0x12, 0x10, 0xa7,
    0xc3, 0x01, 0x52, 0x06, 0x08, 0x13, 0x10, 0xef, 0xc4, 0x01, 0x52, 0x06,
    0x08, 0x14, 0x10, 0xb7, 0xc6, 0x01, 0x52, 0x06, 0x08, 0x15, 0x10, 0xff,
    0xc7, 0x01, 0x52, 0x06, 0x08, 0x16, 0x10, 0xc7, 0xc9, 0x01, 0x52, 0x06,
    0x08, 0x17, 0x10, 0x8f, 0xcb, 0x01, 0x52, 0x06, 0x08, 0x18, 0x10, 0xd7,
    0xcc, 0x01, 0x22, 0x11, 0x08, 0x01, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x20, 0x58, 0xc0, 0x18, 0x2a, 0x20, 0x0b, 0x28, 0x10,
};

constexpr std::uint8_t kDlMacConfigBody[] = {
    0x08, 0x01, 0x10, 0x88, 0x80, 0x19, 0x1a, 0x0c, 0x08, 0x46, 0x10, 0xff,
    0xff, 0x3f, 0x20, 0x0a, 0x28, 0x00, 0x30, 0x01, 0x1a, 0x11, 0x08, 0x47,
    0x10, 0x80, 0x80, 0xc0, 0xff, 0xff, 0xff, 0xff, 0x01, 0x20, 0x0f, 0x28,
    0x01, 0x30, 0x00, 0x1a, 0x19, 0x08, 0x48, 0x10, 0x80, 0x80, 0x80, 0x80,
    0x80, 0xe0, 0xff, 0xff, 0xff, 0x01, 0x18, 0xff, 0xff, 0x03, 0x20, 0x14,
    0x28, 0x02, 0x30, 0x01, 0x38, 0x01,
};

/// One DCI each whose PRBs straddle the word boundary: DL PRBs 60..71,
/// UL PRBs 40..47, 64 and 99 (the last PRB of the band).
constexpr std::uint8_t kDlDciBothWordsBody[] = {
    0x08, 0x02, 0x10, 0xd0, 0x0f, 0x1a, 0x16, 0x08, 0x46, 0x10, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xf0, 0x01, 0x18, 0xff, 0x01, 0x20,
    0x10, 0x28, 0x03, 0x30, 0x01,
};

constexpr std::uint8_t kUlDciBothWordsBody[] = {
    0x08, 0x02, 0x10, 0xd0, 0x0f, 0x1a, 0x13, 0x08, 0x47, 0x10, 0x80, 0x80,
    0x80, 0x80, 0x80, 0xe0, 0x3f, 0x18, 0x81, 0x80, 0x80, 0x80, 0x80, 0x01,
    0x20, 0x0a,
};

constexpr std::uint8_t kEventNotificationBody[] = {
    0x08, 0x09, 0x10, 0x82, 0x80, 0x19, 0x18, 0x47, 0x20, 0x01, 0x28, 0x0c,
    0x32, 0x03, 0x6d, 0x61, 0x63, 0x3a, 0x0f, 0x64, 0x6c, 0x5f, 0x75, 0x65,
    0x5f, 0x73, 0x63, 0x68, 0x65, 0x64, 0x75, 0x6c, 0x65, 0x72, 0x42, 0x06,
    0x72, 0x65, 0x6d, 0x6f, 0x74, 0x65, 0x48, 0x02, 0x50, 0x02, 0x5a, 0x08,
    0x64, 0x65, 0x61, 0x64, 0x6c, 0x69, 0x6e, 0x65, 0x60, 0x01,
};

template <std::size_t N>
std::vector<std::uint8_t> bytes_of(const std::uint8_t (&array)[N]) {
  return {array, array + N};
}

template <typename M>
std::vector<std::uint8_t> encode_body(const M& message) {
  WireEncoder enc;
  message.encode_body(enc);
  return enc.take();
}

TEST(WireVectors, EnvelopeDecodesAndReencodes) {
  const auto wire = bytes_of(kEnvelopeBytes);
  auto envelope = Envelope::decode(wire);
  ASSERT_TRUE(envelope.ok()) << envelope.error().message;
  EXPECT_EQ(envelope->type, MessageType::echo_request);
  EXPECT_EQ(envelope->xid, 300u);
  EXPECT_EQ(envelope->epoch, 7u);
  EXPECT_EQ(envelope->queue_status, 2);
  EXPECT_EQ(envelope->throttle_hint, 4u);
  EXPECT_EQ(envelope->ts_us, 1234567890123ull);
  EXPECT_EQ(envelope->ts_echo_us, 1234567000000ull);
  EXPECT_EQ(envelope->master_epoch, 3u);
  EXPECT_EQ(envelope->retry_after_ms, 250u);
  auto echo = unpack<EchoRequest>(*envelope);
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo->subframe, -5);
  EXPECT_EQ(echo->timestamp_us, 99);
  EXPECT_EQ(envelope->encode(), wire);
}

TEST(WireVectors, StatsReplyDecodesAndReencodes) {
  // 16 UE reports nesting RSRP sub-messages, plus a cell report. The last
  // report lists 24 cells, so its own length prefix is two bytes wide.
  const auto body = bytes_of(kStatsReplyBody);
  auto reply = StatsReply::decode_body(body);
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(reply->request_id, 9u);
  EXPECT_EQ(reply->subframe, 204800);
  ASSERT_EQ(reply->ue_reports.size(), 16u);
  const auto& last = reply->ue_reports.back();
  EXPECT_EQ(last.rnti, 85);
  EXPECT_EQ(last.bsr_bytes, (std::array<std::uint32_t, lte::kNumLcGroups>{150, 1500, 0, 3000}));
  EXPECT_EQ(last.phr_db, -28);
  EXPECT_EQ(last.pending_harq, 3u);
  ASSERT_EQ(last.rsrp.size(), 24u);
  EXPECT_DOUBLE_EQ(last.rsrp[0].rsrp_dbm, -105.25);
  EXPECT_DOUBLE_EQ(last.rsrp[1].rsrp_dbm, -112.75);
  EXPECT_EQ(last.rsrp[23].cell_id, 24);
  EXPECT_DOUBLE_EQ(last.rsrp[23].rsrp_dbm, -131.0);
  ASSERT_EQ(reply->cell_reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reply->cell_reports[0].noise_interference_dbm, -96.5);
  EXPECT_EQ(reply->cell_reports[0].active_ues, 16u);
  EXPECT_EQ(encode_body(*reply), body);

  // The reusing decoder lands on the same message.
  StatsReply reused;
  ASSERT_TRUE(StatsReply::decode_body_into(body, reused).ok());
  EXPECT_EQ(encode_body(reused), body);
}

TEST(WireVectors, DlMacConfigDecodesAndReencodes) {
  const auto body = bytes_of(kDlMacConfigBody);
  DlMacConfig config;
  const auto status = DlMacConfig::decode_body_into(body, config);
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(config.cell_id, 1u);
  EXPECT_EQ(config.target_subframe, 204804);
  ASSERT_EQ(config.dcis.size(), 3u);
  EXPECT_EQ(config.dcis[2].rnti, 72);
  EXPECT_EQ(config.dcis[2].mcs, 20);
  EXPECT_EQ(config.dcis[2].carrier, 1);
  EXPECT_FALSE(config.dcis[1].new_data);
  EXPECT_EQ(encode_body(config), body);
}

TEST(WireVectors, DciBitmapsSpanBothWords) {
  const auto dl_body = bytes_of(kDlDciBothWordsBody);
  DlMacConfig dl;
  const auto dl_status = DlMacConfig::decode_body_into(dl_body, dl);
  ASSERT_TRUE(dl_status.ok()) << dl_status.error().message;
  EXPECT_EQ(dl.cell_id, 2u);
  EXPECT_EQ(dl.target_subframe, 1000);
  ASSERT_EQ(dl.dcis.size(), 1u);
  const auto& dl_dci = dl.dcis[0];
  EXPECT_EQ(dl_dci.rnti, 70);
  EXPECT_EQ(dl_dci.rbs.count(), 12);
  for (int prb = 60; prb < 72; ++prb) EXPECT_TRUE(dl_dci.rbs.test(prb)) << prb;
  EXPECT_FALSE(dl_dci.rbs.test(59));
  EXPECT_EQ(dl_dci.rbs.highest_set(), 71);
  EXPECT_EQ(dl_dci.mcs, 16);
  EXPECT_EQ(dl_dci.harq_pid, 3);
  EXPECT_TRUE(dl_dci.new_data);
  EXPECT_EQ(dl_dci.carrier, 0);
  EXPECT_EQ(encode_body(dl), dl_body);

  const auto ul_body = bytes_of(kUlDciBothWordsBody);
  UlMacConfig ul;
  const auto ul_status = UlMacConfig::decode_body_into(ul_body, ul);
  ASSERT_TRUE(ul_status.ok()) << ul_status.error().message;
  ASSERT_EQ(ul.dcis.size(), 1u);
  const auto& ul_dci = ul.dcis[0];
  EXPECT_EQ(ul_dci.rnti, 71);
  EXPECT_EQ(ul_dci.rbs.count(), 10);
  EXPECT_TRUE(ul_dci.rbs.test(40));
  EXPECT_TRUE(ul_dci.rbs.test(47));
  EXPECT_TRUE(ul_dci.rbs.test(64));
  EXPECT_TRUE(ul_dci.rbs.test(99));
  EXPECT_EQ(ul_dci.rbs.highest_set(), 99);
  EXPECT_EQ(ul_dci.mcs, 10);
  EXPECT_EQ(encode_body(ul), ul_body);
}

TEST(WireVectors, MacConfigDecodeIntoResetsReusedDcis) {
  // Decode a three-DCI config (one SCell grant, one with word 1 set), then
  // a one-DCI config into the same message: the reused DCI slot must not
  // keep fields the second message omits.
  DlMacConfig dl;
  ASSERT_TRUE(DlMacConfig::decode_body_into(bytes_of(kDlMacConfigBody), dl).ok());
  ASSERT_EQ(dl.dcis.size(), 3u);
  dl.dcis[0].carrier = 1;
  ASSERT_TRUE(DlMacConfig::decode_body_into(bytes_of(kDlDciBothWordsBody), dl).ok());
  ASSERT_EQ(dl.dcis.size(), 1u);
  EXPECT_EQ(dl.dcis[0].carrier, 0);
  EXPECT_EQ(encode_body(dl), bytes_of(kDlDciBothWordsBody));

  UlMacConfig ul;
  ASSERT_TRUE(UlMacConfig::decode_body_into(bytes_of(kUlDciBothWordsBody), ul).ok());
  ul.dcis[0].rbs.set(0);
  ASSERT_TRUE(UlMacConfig::decode_body_into(bytes_of(kUlDciBothWordsBody), ul).ok());
  EXPECT_FALSE(ul.dcis[0].rbs.test(0));
  EXPECT_EQ(encode_body(ul), bytes_of(kUlDciBothWordsBody));

  // A truncated body fails and says so.
  auto truncated = bytes_of(kDlDciBothWordsBody);
  truncated.pop_back();
  EXPECT_FALSE(DlMacConfig::decode_body_into(truncated, dl).ok());
}

TEST(WireVectors, EventNotificationDecodesAndReencodes) {
  const auto body = bytes_of(kEventNotificationBody);
  auto event = EventNotification::decode_body(body);
  ASSERT_TRUE(event.ok()) << event.error().message;
  EXPECT_EQ(event->event, EventType::vsf_failure);
  EXPECT_EQ(event->subframe, 204801);
  EXPECT_EQ(event->vsf, "dl_ue_scheduler");
  EXPECT_EQ(event->failure_kind, VsfFailureKind::overrun);
  EXPECT_EQ(event->detail, "deadline");
  EXPECT_EQ(event->overload_state, 1);
  EXPECT_EQ(encode_body(*event), body);
  EXPECT_EQ(classify(MessageType::event_notification, body).category,
            MessageCategory::agent_management);
}

TEST(WireVectors, FirstErrorIsReportedWithItsFieldNumber) {
  // Field 2 (subframe, a varint) arrives length-delimited, and the body
  // then ends inside a varint. The decode must stop at the first error.
  const std::vector<std::uint8_t> body{0x08, 0x09,        // request_id = 9
                                       0x12, 0x01, 0x00,  // field 2, wrong wire type
                                       0x28, 0x80};       // field 5, truncated varint
  auto reply = StatsReply::decode_body(body);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, util::Error::Code::decode_failure);
  EXPECT_EQ(reply.error().message, "field 2: wrong wire type");

  // The decoder keeps the same first error as the reads go on.
  WireDecoder dec(body);
  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.varint(), 9u);
  ASSERT_TRUE(dec.next());
  EXPECT_EQ(dec.varint(), 0u);
  EXPECT_FALSE(dec.next());
  (void)dec.varint_raw();
  EXPECT_EQ(dec.error(), DecodeError::wrong_wire_type);
  EXPECT_EQ(dec.error_field(), 2);

  // Without the first error, the second is the one reported; inside a
  // nested message the field is the innermost one.
  auto truncated = StatsReply::decode_body(std::vector<std::uint8_t>{0x08, 0x09, 0x28, 0x80});
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().message, "field 5: truncated");
  const std::vector<std::uint8_t> nested{0x1a, 0x02, 0x20, 0x80};  // UE report, wb_cqi cut
  auto inner = StatsReply::decode_body(nested);
  ASSERT_FALSE(inner.ok());
  EXPECT_EQ(inner.error().message, "field 4: truncated");
}


// Every message type the vectors above do not cover, pinned byte for byte:
// once with every field at its default and once with every field set. The
// bytes were captured from the hand-written codecs; the decode of each
// vector must re-encode to it.
std::string hex_of(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

template <typename M>
void expect_pinned(const M& message, const std::string& want) {
  SCOPED_TRACE(to_string(M::kType));
  const auto body = encode_body(message);
  EXPECT_EQ(hex_of(body), want);
  auto decoded = M::decode_body(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(hex_of(encode_body(*decoded)), want);
}

void expect_pinned(const MasterCheckpoint& checkpoint, const std::string& want) {
  SCOPED_TRACE("checkpoint");
  const auto bytes = checkpoint.encode();
  EXPECT_EQ(hex_of(bytes), want);
  auto decoded = MasterCheckpoint::decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(hex_of(decoded->encode()), want);
}

TEST(WireVectors, RemainingMessageTypesArePinned) {
  expect_pinned(Hello{}, "080012001801");
  expect_pinned(Hello{.enb_id = 7,
                      .name = "enb-7",
                      .n_cells = 2,
                      .capabilities = {"mac", "rrc"},
                      .epoch = 3},
                "08071205656e622d37180222036d616322037272632803");
  expect_pinned(EchoRequest{}, "08001000");
  expect_pinned(EchoRequest{.subframe = -5, .timestamp_us = 123456789}, "080910aab4de75");
  expect_pinned(EchoReply{}, "08001000");
  expect_pinned(EchoReply{.subframe = 204800, .echoed_timestamp_us = -1}, "088080191001");

  const CellConfigMsg cell{.cell_id = 1,
                           .bandwidth_mhz = 20.0,
                           .duplex = 1,
                           .tx_mode = 2,
                           .antenna_ports = 2,
                           .band = 7,
                           .pci = 301};
  expect_pinned(EnbConfigReply{}, "0800");
  expect_pinned(EnbConfigReply{.enb_id = 2, .cells = {cell, CellConfigMsg{}}},
                "080212160801110000000000003440180120022802300738ad"
                "021215080011000000000000244018002001280130053800");
  expect_pinned(UeConfigReply{}, "");
  expect_pinned(UeConfigReply{.ues = {UeConfigMsg{.rnti = 70,
                                                  .primary_cell = 1,
                                                  .tx_mode = 3,
                                                  .ue_category = 6,
                                                  .carrier_aggregation = true},
                                      UeConfigMsg{}}},
                "0a0a084610011803200628010a0a08001000180120042800");
  expect_pinned(LcConfigReply{}, "");
  expect_pinned(
      LcConfigReply{.channels = {LcConfigMsg{.rnti = 70, .lcid = 4, .lc_group = 2},
                                 LcConfigMsg{}}},
      "0a060846100418020a06080010031801");

  const StatsRequest request{.request_id = 9,
                             .mode = ReportMode::triggered,
                             .periodicity_ttis = 5,
                             .flags = stats_flags::kCqi | stats_flags::kRsrp,
                             .ues = {70, 71}};
  expect_pinned(StatsRequest{}, "08001000180120ff01");
  expect_pinned(request, "08091002180520820128462847");

  expect_pinned(HandoverCommand{}, "080010001800");
  expect_pinned(HandoverCommand{.rnti = 70, .source_cell = 1, .target_cell = 2},
                "084610011802");
  expect_pinned(AbsConfig{}, "080010001801");
  expect_pinned(AbsConfig{.cell_id = 1,
                          .pattern = lte::AbsPattern::per_frame(4),
                          .mute_during_abs = false},
                "0801108ff8c0873c1800");
  expect_pinned(CarrierRestriction{}, "08001000");
  expect_pinned(CarrierRestriction{.cell_id = 2, .max_dl_prbs = 50}, "08021032");
  expect_pinned(DrxConfig{}, "080010001800");
  expect_pinned(DrxConfig{.rnti = 70, .cycle_ttis = 64, .on_duration_ttis = 8}, "084610401808");
  expect_pinned(ScellCommand{}, "08001001");
  expect_pinned(ScellCommand{.rnti = 70, .activate = false}, "08461000");
  expect_pinned(EventSubscription{}, "1001");
  expect_pinned(EventSubscription{.events = {EventType::ue_attach, EventType::rach_attempt},
                                  .enable = false},
                "080208041000");
  expect_pinned(ControlDelegation{}, "0a0012001a002001");
  expect_pinned(ControlDelegation{.module = "mac",
                                  .vsf = "dl_ue_scheduler",
                                  .implementation = "local_pf",
                                  .version = 3,
                                  .blob = {1, 2, 255}},
                "0a036d6163120f646c5f75655f7363686564756c65721a086c6f63616c5f706620032a030102ff");
  expect_pinned(PolicyReconfiguration{}, "0a00");
  expect_pinned(PolicyReconfiguration{.yaml = "mac:\n  dl_ue_scheduler: local_pf\n"},
                "0a216d61633a0a2020646c5f75655f7363686564756c65723a206c6f63616c5f70660a");

  // The version stays at the one decode accepts; every other field is set.
  expect_pinned(MasterCheckpoint{}, "0801");
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 4;
  checkpoint.saved_at_us = 123456789;
  checkpoint.shard = 2;
  checkpoint.agent_ids = {3, 5};
  checkpoint.agents.push_back(CheckpointAgent{.id = 3,
                                              .name = "enb-3",
                                              .capabilities = {"mac"},
                                              .epoch = 2,
                                              .config = {.enb_id = 3, .cells = {cell}},
                                              .reports = {request},
                                              .policy_history = {"a: 1", "b: 2"}});
  checkpoint.agents.push_back(CheckpointAgent{});
  expect_pinned(checkpoint,
                "0801100418959aef3a224708031205656e622d331a036d616320022a1a0803121608011100000000"
                "00003440180120022802300738ad02320d080910021805208201284628473a04613a20313a04623a"
                "20322208080012002a020800280330033005");
}

}  // namespace
}  // namespace flexran::proto
