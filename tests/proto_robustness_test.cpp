// Decode hardening (docs/fault_tolerance.md): every wire decoder must
// survive hostile input -- truncated frames, random byte corruption, and
// reordered fields -- returning a clean util::Result instead of crashing
// or reading out of bounds. The whole suite runs under the ASan/UBSan leg
// of tools/check.sh, so an out-of-bounds read or UB in a decoder fails the
// gate even when the decode happens to "succeed".
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lte/abs.h"
#include "proto/checkpoint.h"
#include "proto/messages.h"
#include "proto/wire.h"

namespace {

using namespace flexran;
using namespace flexran::proto;

/// One decoder surface under test: a valid encoding plus a type-erased
/// decode that reports success/failure (the value itself is irrelevant --
/// the sanitizers judge the memory behavior).
struct Surface {
  std::string name;
  std::vector<std::uint8_t> valid;
  std::function<bool(std::span<const std::uint8_t>)> decode;
};

/// Decodes through M::decode_body, or through decode_body_into for the
/// messages (DL/UL MAC config) that have only the reusing decoder.
template <typename M>
Surface body_surface(std::string name, const M& sample) {
  WireEncoder enc;
  sample.encode_body(enc);
  return {std::move(name), enc.take(), [](std::span<const std::uint8_t> data) {
            if constexpr (requires { M::decode_body(data); }) {
              return M::decode_body(data).ok();
            } else {
              M out;
              return M::decode_body_into(data, out).ok();
            }
          }};
}

std::vector<Surface> all_surfaces() {
  std::vector<Surface> surfaces;

  Envelope envelope;
  envelope.type = MessageType::stats_reply;
  envelope.xid = 77;
  envelope.epoch = 3;
  envelope.queue_status = 1;
  envelope.throttle_hint = 4;
  envelope.ts_us = 123456;
  envelope.ts_echo_us = 123000;
  envelope.master_epoch = 2;
  envelope.retry_after_ms = 40;
  envelope.body = {0x08, 0x01};
  surfaces.push_back({"Envelope", envelope.encode(),
                      [](std::span<const std::uint8_t> data) {
                        return Envelope::decode(data).ok();
                      }});

  Hello hello;
  hello.enb_id = 17;
  hello.name = "macro-17";
  hello.n_cells = 2;
  hello.capabilities = {"mac", "rrc", "pdcp"};
  hello.epoch = 5;
  surfaces.push_back(body_surface("Hello", hello));

  EchoRequest echo_request;
  echo_request.subframe = 1234;
  echo_request.timestamp_us = 987654;
  surfaces.push_back(body_surface("EchoRequest", echo_request));

  EchoReply echo_reply;
  echo_reply.subframe = 1234;
  echo_reply.echoed_timestamp_us = 987654;
  surfaces.push_back(body_surface("EchoReply", echo_reply));

  EnbConfigReply enb_config;
  enb_config.enb_id = 17;
  for (int i = 0; i < 2; ++i) {
    CellConfigMsg cell;
    cell.cell_id = static_cast<lte::CellId>(i + 1);
    cell.bandwidth_mhz = 20.0;
    cell.pci = static_cast<std::uint16_t>(100 + i);
    enb_config.cells.push_back(cell);
  }
  surfaces.push_back(body_surface("EnbConfigReply", enb_config));

  UeConfigReply ue_config;
  UeConfigMsg ue;
  ue.rnti = 70;
  ue.primary_cell = 1;
  ue.carrier_aggregation = true;
  ue_config.ues.push_back(ue);
  surfaces.push_back(body_surface("UeConfigReply", ue_config));

  LcConfigReply lc_config;
  LcConfigMsg lc;
  lc.rnti = 70;
  lc.lc_group = 2;
  lc_config.channels.push_back(lc);
  surfaces.push_back(body_surface("LcConfigReply", lc_config));

  StatsRequest stats_request;
  stats_request.request_id = 9;
  stats_request.mode = ReportMode::periodic;
  stats_request.periodicity_ttis = 5;
  stats_request.ues = {70, 71};
  surfaces.push_back(body_surface("StatsRequest", stats_request));

  StatsReply stats_reply;
  stats_reply.request_id = 9;
  stats_reply.subframe = 4321;
  UeStatsReport report;
  report.rnti = 70;
  report.bsr_bytes = {100, 200, 0, 50};
  report.wb_cqi = 12;
  report.rlc_queue_bytes = 4000;
  report.rsrp.push_back({1, -95.5});
  report.rsrp.push_back({2, -101.0});
  stats_reply.ue_reports.push_back(report);
  CellStatsReport cell_report;
  cell_report.cell_id = 1;
  cell_report.dl_prbs_in_use = 40;
  cell_report.active_ues = 2;
  stats_reply.cell_reports.push_back(cell_report);
  surfaces.push_back(body_surface("StatsReply", stats_reply));

  DlMacConfig dl_mac;
  dl_mac.cell_id = 1;
  dl_mac.target_subframe = 5000;
  lte::DlDci dci;
  dci.rnti = 70;
  dci.rbs.set_range(0, 25);
  dci.mcs = 20;
  dl_mac.dcis.push_back(dci);
  surfaces.push_back(body_surface("DlMacConfig", dl_mac));

  UlMacConfig ul_mac;
  ul_mac.cell_id = 1;
  ul_mac.target_subframe = 5000;
  lte::UlDci ul_dci;
  ul_dci.rnti = 70;
  ul_dci.rbs.set_range(10, 8);
  ul_dci.mcs = 12;
  ul_mac.dcis.push_back(ul_dci);
  surfaces.push_back(body_surface("UlMacConfig", ul_mac));

  HandoverCommand handover;
  handover.rnti = 70;
  handover.source_cell = 1;
  handover.target_cell = 2;
  surfaces.push_back(body_surface("HandoverCommand", handover));

  AbsConfig abs;
  abs.cell_id = 1;
  abs.pattern = lte::AbsPattern::per_frame(2);
  abs.mute_during_abs = true;
  surfaces.push_back(body_surface("AbsConfig", abs));

  CarrierRestriction restriction;
  restriction.cell_id = 1;
  restriction.max_dl_prbs = 30;
  surfaces.push_back(body_surface("CarrierRestriction", restriction));

  DrxConfig drx;
  drx.rnti = 70;
  drx.cycle_ttis = 40;
  drx.on_duration_ttis = 8;
  surfaces.push_back(body_surface("DrxConfig", drx));

  ScellCommand scell;
  scell.rnti = 70;
  scell.activate = false;
  surfaces.push_back(body_surface("ScellCommand", scell));

  EventNotification event;
  event.event = EventType::vsf_failure;
  event.subframe = 6000;
  event.rnti = 70;
  event.xid = 12;
  event.module = "mac";
  event.vsf = "dl_ue_scheduler";
  event.implementation = "faulty_crash";
  event.failure_kind = VsfFailureKind::exception;
  event.failure_count = 3;
  event.detail = "threw std::runtime_error";
  surfaces.push_back(body_surface("EventNotification", event));

  EventSubscription subscription;
  subscription.events = {EventType::ue_attach, EventType::rach_attempt};
  subscription.enable = true;
  surfaces.push_back(body_surface("EventSubscription", subscription));

  ControlDelegation delegation;
  delegation.module = "mac";
  delegation.vsf = "dl_ue_scheduler";
  delegation.implementation = "local_pf";
  delegation.version = 2;
  delegation.blob = {0xde, 0xad, 0xbe, 0xef};
  surfaces.push_back(body_surface("ControlDelegation", delegation));

  PolicyReconfiguration policy;
  policy.yaml = "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n";
  surfaces.push_back(body_surface("PolicyReconfiguration", policy));

  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 3;
  checkpoint.saved_at_us = 2'000'000;
  checkpoint.shard = 1;
  checkpoint.agent_ids = {1, 4};
  CheckpointAgent agent;
  agent.id = 1;
  agent.name = "macro-a";
  agent.capabilities = {"mac", "rrc"};
  agent.epoch = 2;
  agent.config = enb_config;
  agent.reports.push_back(stats_request);
  agent.policy_history.push_back(policy.yaml);
  checkpoint.agents.push_back(agent);
  surfaces.push_back({"MasterCheckpoint", checkpoint.encode(),
                      [](std::span<const std::uint8_t> data) {
                        return MasterCheckpoint::decode(data).ok();
                      }});

  return surfaces;
}

/// Splits a wire buffer into its top-level fields (header + value slices).
/// Returns empty on malformed input.
std::vector<std::vector<std::uint8_t>> split_fields(std::span<const std::uint8_t> data) {
  std::vector<std::vector<std::uint8_t>> fields;
  std::size_t pos = 0;
  auto varint = [&](std::uint64_t& out) {
    out = 0;
    int shift = 0;
    while (pos < data.size() && shift < 64) {
      const std::uint8_t byte = data[pos++];
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  };
  while (pos < data.size()) {
    const std::size_t start = pos;
    std::uint64_t tag = 0;
    if (!varint(tag)) return {};
    const auto type = static_cast<WireType>(tag & 0x7);
    std::uint64_t value = 0;
    switch (type) {
      case WireType::varint:
        if (!varint(value)) return {};
        break;
      case WireType::fixed64:
        if (pos + 8 > data.size()) return {};
        pos += 8;
        break;
      case WireType::length_delimited:
        if (!varint(value) || pos + value > data.size()) return {};
        pos += value;
        break;
      case WireType::fixed32:
        if (pos + 4 > data.size()) return {};
        pos += 4;
        break;
      default:
        return {};
    }
    fields.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(start),
                        data.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return fields;
}

// Every valid sample decodes; establishes the baseline the mutations start
// from (a surface whose valid form fails would make the fuzz moot).
TEST(ProtoRobustness, ValidSamplesDecode) {
  for (const auto& surface : all_surfaces()) {
    EXPECT_TRUE(surface.decode(surface.valid)) << surface.name;
    EXPECT_FALSE(surface.valid.empty()) << surface.name;
  }
}

// Truncation at every byte boundary: prefixes that cut a varint or a
// length-delimited field mid-value must fail cleanly; prefixes that land
// on a field boundary are simply shorter valid messages. Either way: no
// crash, no sanitizer finding.
TEST(ProtoRobustness, TruncationAtEveryPrefix) {
  for (const auto& surface : all_surfaces()) {
    for (std::size_t len = 0; len < surface.valid.size(); ++len) {
      std::span<const std::uint8_t> prefix(surface.valid.data(), len);
      (void)surface.decode(prefix);  // must return, not crash
    }
    // Cutting into the final field's value (not at a boundary) must fail.
    if (surface.valid.size() > 1) {
      std::span<const std::uint8_t> cut(surface.valid.data(), surface.valid.size() - 1);
      const auto fields = split_fields(cut);
      if (fields.empty()) {
        EXPECT_FALSE(surface.decode(cut)) << surface.name;
      }
    }
  }
}

// Deterministic byte corruption: single-byte overwrites at every offset
// with adversarial values, plus a PRNG flip sweep. Decoders may accept a
// mutation that still parses (field numbers are free), but must never
// crash or trip the sanitizers.
TEST(ProtoRobustness, CorruptedBytesNeverCrash) {
  for (const auto& surface : all_surfaces()) {
    for (const std::uint8_t poison : {0x00, 0xff, 0x80, 0x7f}) {
      for (std::size_t i = 0; i < surface.valid.size(); ++i) {
        std::vector<std::uint8_t> mutated = surface.valid;
        mutated[i] = poison;
        (void)surface.decode(mutated);
      }
    }
    // xorshift PRNG sweep: multi-byte corruption patterns.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 256; ++round) {
      std::vector<std::uint8_t> mutated = surface.valid;
      for (int flip = 0; flip < 4; ++flip) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        mutated[state % mutated.size()] ^=
            static_cast<std::uint8_t>(1u << ((state >> 8) % 8));
      }
      (void)surface.decode(mutated);
    }
  }
}

// Protobuf wire format guarantees field order is free: splitting a valid
// message into its top-level fields and re-joining them reversed must
// still decode (repeated-field contents may reorder; that is fine).
TEST(ProtoRobustness, ShuffledFieldsStillDecode) {
  for (const auto& surface : all_surfaces()) {
    const auto fields = split_fields(surface.valid);
    ASSERT_FALSE(fields.empty()) << surface.name;
    std::vector<std::uint8_t> reversed;
    for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
      reversed.insert(reversed.end(), it->begin(), it->end());
    }
    EXPECT_TRUE(surface.decode(reversed)) << surface.name;
  }
}

// The checkpoint codec's versioning: a missing or future version field is
// a clean, typed refusal (a master must never warm-load state it cannot
// interpret).
TEST(ProtoRobustness, CheckpointVersionGate) {
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 1;
  auto bytes = checkpoint.encode();
  ASSERT_TRUE(MasterCheckpoint::decode(bytes).ok());

  WireEncoder future;
  future.field_varint(1, MasterCheckpoint::kVersion + 1);
  auto future_bytes = future.take();
  auto decoded = MasterCheckpoint::decode(future_bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, util::Error::Code::unsupported);

  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(MasterCheckpoint::decode(empty).ok());
}

// Shard identity stamping (docs/sharded_control.md "Shard failover"): the
// shard index and the owned-agent-id roster round-trip, and a checkpoint
// that never carried a shard field -- anything written before sharding, or
// by a standalone master -- decodes back to the standalone sentinel (-1),
// not to shard 0.
TEST(ProtoRobustness, CheckpointShardIdentityRoundTrips) {
  MasterCheckpoint checkpoint;
  checkpoint.incarnation = 2;
  checkpoint.shard = 3;
  checkpoint.agent_ids = {7, 11, 13};
  auto bytes = checkpoint.encode();
  auto decoded = MasterCheckpoint::decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard, 3);
  EXPECT_EQ(decoded->agent_ids, (std::vector<std::uint32_t>{7, 11, 13}));

  // Shard 0 must survive the +1 wire bias (0 is a real shard, not "unset").
  MasterCheckpoint zero;
  zero.shard = 0;
  auto zero_bytes = zero.encode();
  auto zero_decoded = MasterCheckpoint::decode(zero_bytes);
  ASSERT_TRUE(zero_decoded.ok());
  EXPECT_EQ(zero_decoded->shard, 0);

  // Standalone default: field stays off the wire, decodes back to -1.
  MasterCheckpoint standalone;
  standalone.incarnation = 1;
  auto standalone_bytes = standalone.encode();
  auto standalone_decoded = MasterCheckpoint::decode(standalone_bytes);
  ASSERT_TRUE(standalone_decoded.ok());
  EXPECT_EQ(standalone_decoded->shard, -1);
  EXPECT_TRUE(standalone_decoded->agent_ids.empty());
}

// The zero-allocation receive paths (docs/wire_fastpath.md) decode into a
// long-lived struct instead of a fresh one. A failed decode of hostile
// bytes must leave that struct reusable: the next valid decode_into must
// produce exactly what a fresh decode would, with no stale fields or stale
// repeated-entry tails leaking through.
TEST(ProtoRobustness, ReusedEnvelopeSurvivesHostileBytes) {
  Envelope valid;
  valid.type = MessageType::stats_reply;
  valid.xid = 42;
  valid.epoch = 7;
  valid.ts_us = 5555;
  valid.body = {0x08, 0x09, 0x10, 0x0c};
  const auto wire = valid.encode();

  Envelope reused;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    (void)Envelope::decode_into(std::span(wire.data(), len), reused);
  }
  for (const std::uint8_t poison : {0x00, 0xff, 0x80}) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] = poison;
      (void)Envelope::decode_into(mutated, reused);
    }
  }
  ASSERT_TRUE(Envelope::decode_into(wire, reused).ok());
  const auto fresh = Envelope::decode(wire);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(reused.type, fresh->type);
  EXPECT_EQ(reused.xid, fresh->xid);
  EXPECT_EQ(reused.epoch, fresh->epoch);
  EXPECT_EQ(reused.ts_us, fresh->ts_us);
  EXPECT_EQ(reused.body, fresh->body);
}

TEST(ProtoRobustness, ReusedStatsReplySurvivesHostileBytes) {
  StatsReply valid;
  valid.request_id = 3;
  valid.subframe = 900;
  for (int u = 0; u < 3; ++u) {
    UeStatsReport report;
    report.rnti = static_cast<lte::Rnti>(70 + u);
    report.bsr_bytes = {10, 20, 30, 40};
    report.wb_cqi = static_cast<std::uint8_t>(8 + u);
    report.rsrp.push_back({1, -90.0 - u});
    valid.ue_reports.push_back(report);
  }
  WireEncoder enc;
  valid.encode_body(enc);
  const auto wire = enc.take();

  StatsReply reused;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    (void)StatsReply::decode_body_into(std::span(wire.data(), len), reused);
  }
  for (const std::uint8_t poison : {0x00, 0xff, 0x80}) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      std::vector<std::uint8_t> mutated = wire;
      mutated[i] = poison;
      (void)StatsReply::decode_body_into(mutated, reused);
    }
  }
  ASSERT_TRUE(StatsReply::decode_body_into(wire, reused).ok());
  const auto fresh = StatsReply::decode_body(wire);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(reused.request_id, fresh->request_id);
  EXPECT_EQ(reused.subframe, fresh->subframe);
  ASSERT_EQ(reused.ue_reports.size(), fresh->ue_reports.size());
  for (std::size_t u = 0; u < fresh->ue_reports.size(); ++u) {
    EXPECT_EQ(reused.ue_reports[u].rnti, fresh->ue_reports[u].rnti);
    EXPECT_EQ(reused.ue_reports[u].wb_cqi, fresh->ue_reports[u].wb_cqi);
    EXPECT_EQ(reused.ue_reports[u].bsr_bytes, fresh->ue_reports[u].bsr_bytes);
    ASSERT_EQ(reused.ue_reports[u].rsrp.size(), fresh->ue_reports[u].rsrp.size());
  }
}

}  // namespace
