// Tag-byte dispatch (docs/wire_fastpath.md): the per-TTI decoders switch on
// the raw byte at the cursor and fall back to the checked next() path for
// anything their arms do not match. These tests hold them to the checked
// idiom byte for byte: a test-local reference decoder, written as a plain
// `while (dec.next()) switch (dec.field())` loop, must accept and reject
// the same bodies with the same error and field number, and decode the
// same values, over hand-made edge cases and over every truncation and
// byte mutation of realistic bodies.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "proto/messages.h"
#include "proto/wire.h"

namespace {

using namespace flexran;
using namespace flexran::proto;
using Bytes = std::vector<std::uint8_t>;

// ------------------------------------------------------ reference decoders --

/// BSR entries the reference dropped past the fixed array (the production
/// decoder counts them in decode_anomalies()).
std::uint64_t g_ref_bsr_overflow = 0;

void ref_rsrp(WireDecoder& dec, RsrpMeasurement& out) {
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: out.rsrp_dbm = static_cast<double>(dec.svarint()) / 100.0; break;
      default: dec.skip();
    }
  }
}

void ref_ue_report(WireDecoder& dec, UeStatsReport& out) {
  std::size_t bsr_index = 0;
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: {
        const auto bsr = static_cast<std::uint32_t>(dec.varint());
        if (!dec.ok()) break;
        if (bsr_index < out.bsr_bytes.size()) {
          out.bsr_bytes[bsr_index++] = bsr;
        } else {
          ++g_ref_bsr_overflow;
        }
        break;
      }
      case 3: out.phr_db = static_cast<std::int32_t>(dec.svarint()); break;
      case 4: dec.read(out.wb_cqi); break;
      case 5: dec.read(out.rlc_queue_bytes); break;
      case 6: dec.read(out.pending_harq); break;
      case 7: dec.read(out.dl_bytes_delivered); break;
      case 8: dec.read(out.ul_bytes_received); break;
      case 9: dec.read(out.wb_cqi_protected); break;
      case 10: dec.message(out.rsrp.emplace_back(), ref_rsrp); break;
      case 11: dec.read(out.ul_buffer_bytes); break;
      default: dec.skip();
    }
  }
}

void ref_cell_report(WireDecoder& dec, CellStatsReport& out) {
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: dec.read(out.noise_interference_dbm); break;
      case 3: dec.read(out.dl_prbs_in_use); break;
      case 4: dec.read(out.ul_prbs_in_use); break;
      case 5: dec.read(out.active_ues); break;
      default: dec.skip();
    }
  }
}

util::Status ref_stats_reply(std::span<const std::uint8_t> data, StatsReply& out) {
  out = StatsReply{};
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.request_id); break;
      case 2: out.subframe = dec.svarint(); break;
      case 3: dec.message(out.ue_reports.emplace_back(), ref_ue_report); break;
      case 4: dec.message(out.cell_reports.emplace_back(), ref_cell_report); break;
      default: dec.skip();
    }
  }
  return dec.status();
}

void ref_dl_dci(WireDecoder& dec, lte::DlDci& out) {
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.rnti); break;
      case 2: w0 = dec.varint(); break;
      case 3: w1 = dec.varint(); break;
      case 4: dec.read(out.mcs); break;
      case 5: dec.read(out.harq_pid); break;
      case 6: dec.read(out.new_data); break;
      case 7: dec.read(out.carrier); break;
      default: dec.skip();
    }
  }
  out.rbs = lte::RbAllocation::from_words(w0, w1);
}

util::Status ref_dl_mac_config(std::span<const std::uint8_t> data, DlMacConfig& out) {
  out = DlMacConfig{};
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.cell_id); break;
      case 2: out.target_subframe = dec.svarint(); break;
      case 3: dec.message(out.dcis.emplace_back(), ref_dl_dci); break;
      default: dec.skip();
    }
  }
  return dec.status();
}

util::Status ref_envelope(std::span<const std::uint8_t> data, Envelope& out) {
  out = Envelope{};
  bool saw_type = false;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.version); break;
      case 2:
        dec.read(out.type);
        saw_type = true;
        break;
      case 3: dec.read(out.xid); break;
      case 4: {
        const auto body = dec.bytes();
        out.body.assign(body.begin(), body.end());
        break;
      }
      case 5: dec.read(out.epoch); break;
      case 6: dec.read(out.queue_status); break;
      case 7: dec.read(out.throttle_hint); break;
      case 8: dec.read(out.ts_us); break;
      case 9: dec.read(out.ts_echo_us); break;
      case 10: dec.read(out.master_epoch); break;
      case 11: dec.read(out.retry_after_ms); break;
      default: dec.skip();
    }
  }
  if (!dec.ok()) return dec.status();
  if (!saw_type) return util::Error::decode_failure("envelope missing type");
  return {};
}

// ----------------------------------------------------------- comparison --

auto fields_of(const RsrpMeasurement& m) { return std::tie(m.cell_id, m.rsrp_dbm); }
auto fields_of(const UeStatsReport& r) {
  return std::tie(r.rnti, r.bsr_bytes, r.phr_db, r.wb_cqi, r.wb_cqi_protected, r.rlc_queue_bytes,
                  r.pending_harq, r.dl_bytes_delivered, r.ul_bytes_received, r.ul_buffer_bytes);
}
auto fields_of(const CellStatsReport& c) {
  // By its bits: a mutated fixed64 may be a NaN.
  return std::make_tuple(c.cell_id, std::bit_cast<std::uint64_t>(c.noise_interference_dbm),
                         c.dl_prbs_in_use, c.ul_prbs_in_use, c.active_ues);
}
auto fields_of(const lte::DlDci& d) {
  return std::tie(d.rnti, d.rbs, d.mcs, d.harq_pid, d.new_data, d.carrier);
}
auto fields_of(const Envelope& e) {
  return std::tie(e.version, e.type, e.xid, e.epoch, e.queue_status, e.throttle_hint, e.ts_us,
                  e.ts_echo_us, e.master_epoch, e.retry_after_ms, e.body);
}

bool same(const RsrpMeasurement& a, const RsrpMeasurement& b);
bool same(const UeStatsReport& a, const UeStatsReport& b);
bool same(const CellStatsReport& a, const CellStatsReport& b);
bool same(const lte::DlDci& a, const lte::DlDci& b);

template <typename T>
bool same_list(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}
bool same(const RsrpMeasurement& a, const RsrpMeasurement& b) {
  return fields_of(a) == fields_of(b);
}
bool same(const UeStatsReport& a, const UeStatsReport& b) {
  return fields_of(a) == fields_of(b) && same_list(a.rsrp, b.rsrp);
}
bool same(const CellStatsReport& a, const CellStatsReport& b) {
  return fields_of(a) == fields_of(b);
}
bool same(const lte::DlDci& a, const lte::DlDci& b) { return fields_of(a) == fields_of(b); }
bool same(const StatsReply& a, const StatsReply& b) {
  return a.request_id == b.request_id && a.subframe == b.subframe &&
         same_list(a.ue_reports, b.ue_reports) && same_list(a.cell_reports, b.cell_reports);
}
bool same(const DlMacConfig& a, const DlMacConfig& b) {
  return a.cell_id == b.cell_id && a.target_subframe == b.target_subframe &&
         same_list(a.dcis, b.dcis);
}
bool same(const Envelope& a, const Envelope& b) { return fields_of(a) == fields_of(b); }

std::string outcome(const util::Status& status) {
  return status.ok() ? std::string("ok") : status.error().message;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
    out += ' ';
  }
  return out;
}

/// A per-TTI message's production decoder (into a reused message) and its
/// reference (into a fresh one).
template <typename M>
struct Codec {
  util::Status (*decode)(std::span<const std::uint8_t>, M&);
  util::Status (*reference)(std::span<const std::uint8_t>, M&);
};
const Codec<StatsReply> kStatsReply{StatsReply::decode_body_into, ref_stats_reply};
const Codec<DlMacConfig> kDlMacConfig{DlMacConfig::decode_body_into, ref_dl_mac_config};
const Codec<Envelope> kEnvelope{Envelope::decode_into, ref_envelope};

/// Decodes `bytes` both ways and compares the outcomes; on success also
/// every decoded field and the BSR overflow count. Empty when they agree,
/// else what differs. `outcome_out` receives the production outcome.
template <typename M>
std::string compare(const Codec<M>& codec, std::span<const std::uint8_t> bytes, M& reused,
                    std::string* outcome_out = nullptr) {
  const auto overflow0 = decode_anomalies().bsr_overflow.load();
  const std::uint64_t ref_overflow0 = g_ref_bsr_overflow;
  const std::string got = outcome(codec.decode(bytes, reused));
  const auto overflow = decode_anomalies().bsr_overflow.load() - overflow0;
  M fresh;
  const std::string want = outcome(codec.reference(bytes, fresh));
  const auto ref_overflow = g_ref_bsr_overflow - ref_overflow0;
  if (outcome_out != nullptr) *outcome_out = got;
  std::string diff;
  if (got != want) {
    diff = "outcome '" + got + "' vs reference '" + want + "'";
  } else if (got == "ok" && !same(reused, fresh)) {
    diff = "decoded fields differ";
  } else if (got == "ok" && overflow != ref_overflow) {
    diff = "bsr overflow count " + std::to_string(overflow) + " vs reference " +
           std::to_string(ref_overflow);
  }
  if (!diff.empty()) diff += " on [" + hex(bytes) + "]";
  return diff;
}

// ------------------------------------------------------- hand-made bodies --

void put_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_tag(Bytes& out, int field, WireType type) { put_varint(out, tag_byte(field, type)); }

/// `field` with wire type `type` and a small valid value of that type.
void put_field(Bytes& out, int field, WireType type, bool overlong_tag = false) {
  if (overlong_tag) {
    out.push_back(static_cast<std::uint8_t>(tag_byte(field, type) | 0x80));
    out.push_back(0x00);
  } else {
    put_tag(out, field, type);
  }
  switch (type) {
    case WireType::varint: put_varint(out, 300 + field); break;
    case WireType::fixed64:
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(0x40 + i));
      break;
    case WireType::fixed32:
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(0x10 + i));
      break;
    case WireType::length_delimited:
      out.push_back(2);
      out.push_back(0x08);  // field 1 = 5: a valid nested body too
      out.push_back(0x05);
      break;
  }
}

Bytes wrap(int field, const Bytes& payload) {
  Bytes out;
  put_tag(out, field, WireType::length_delimited);
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// One message decoded through tag-byte dispatch, reached inside the body
/// of one of the three top-level codecs.
struct Surface {
  std::string name;
  /// Its known fields and their wire types.
  std::vector<std::pair<int, WireType>> fields;
  /// Places a body of this message where its top-level codec decodes it.
  Bytes (*place)(const Bytes&);
  /// Decodes a placed body with `compare`.
  std::string (*check)(std::span<const std::uint8_t>, std::string*);
};

std::string check_reply(std::span<const std::uint8_t> bytes, std::string* got) {
  StatsReply reused;
  return compare(kStatsReply, bytes, reused, got);
}
std::string check_dl(std::span<const std::uint8_t> bytes, std::string* got) {
  DlMacConfig reused;
  return compare(kDlMacConfig, bytes, reused, got);
}
std::string check_envelope(std::span<const std::uint8_t> bytes, std::string* got) {
  Envelope reused;
  return compare(kEnvelope, bytes, reused, got);
}

std::vector<Surface> surfaces() {
  constexpr auto V = WireType::varint;
  constexpr auto L = WireType::length_delimited;
  constexpr auto F64 = WireType::fixed64;
  const auto as_is = [](const Bytes& body) { return body; };
  return {
      {"StatsReply", {{1, V}, {2, V}, {3, L}, {4, L}}, as_is, check_reply},
      {"UeStatsReport",
       {{1, V}, {2, V}, {3, V}, {4, V}, {5, V}, {6, V}, {7, V}, {8, V}, {9, V}, {10, L}, {11, V}},
       [](const Bytes& body) { return wrap(3, body); }, check_reply},
      {"RsrpMeasurement", {{1, V}, {2, V}},
       [](const Bytes& body) { return wrap(3, wrap(10, body)); }, check_reply},
      {"CellStatsReport", {{1, V}, {2, F64}, {3, V}, {4, V}, {5, V}},
       [](const Bytes& body) { return wrap(4, body); }, check_reply},
      {"DlMacConfig", {{1, V}, {2, V}, {3, L}}, as_is, check_dl},
      {"DlDci", {{1, V}, {2, V}, {3, V}, {4, V}, {5, V}, {6, V}, {7, V}},
       [](const Bytes& body) { return wrap(3, body); }, check_dl},
      {"Envelope",
       {{1, V}, {2, V}, {3, V}, {4, L}, {5, V}, {6, V}, {7, V}, {8, V}, {9, V}, {10, V}, {11, V}},
       as_is, check_envelope},
  };
}

std::string field_error(int field, const char* what) {
  return "field " + std::to_string(field) + ": " + what;
}

// Every arm of every per-TTI decoder against the checked reference, on the
// bodies where the raw-byte switch and the checked path could part ways.
TEST(ProtoRobustness, TagDispatchMatchesCheckedPath) {
  constexpr WireType kTypes[] = {WireType::varint, WireType::fixed64,
                                 WireType::length_delimited, WireType::fixed32};
  for (const auto& s : surfaces()) {
    SCOPED_TRACE(s.name);
    const auto check = [&](const Bytes& body, const std::string& want, const char* what) {
      std::string got;
      const std::string diff = s.check(s.place(body), &got);
      EXPECT_EQ(diff, "") << what;
      if (!want.empty()) {
        EXPECT_EQ(got, want) << what << " [" << hex(s.place(body)) << "]";
      }
    };
    // The Envelope requires field 2; give it one after the field under test.
    const auto finish = [&](Bytes body) {
      if (s.name == "Envelope") put_field(body, 2, WireType::varint);
      return body;
    };
    for (const auto& [field, type] : s.fields) {
      SCOPED_TRACE("field " + std::to_string(field));
      Bytes plain;
      put_field(plain, field, type);
      check(finish(plain), "ok", "one-byte tag");
      Bytes overlong;
      put_field(overlong, field, type, /*overlong_tag=*/true);
      check(finish(overlong), "ok", "over-long tag");
      for (const WireType other : kTypes) {
        if (other == type) continue;
        Bytes wrong;
        put_field(wrong, field, other);
        check(finish(wrong), field_error(field, "wrong wire type"), "other wire type");
        Bytes wrong_overlong;
        put_field(wrong_overlong, field, other, /*overlong_tag=*/true);
        check(finish(wrong_overlong), field_error(field, "wrong wire type"),
              "other wire type, over-long tag");
      }
    }
    check(Bytes{0x00}, field_error(0, "invalid field number"), "0x00 tag byte");
    Bytes zero_after;
    put_field(zero_after, s.fields.front().first, s.fields.front().second);
    zero_after.push_back(0x00);
    check(zero_after, field_error(0, "invalid field number"), "0x00 after a fast field");
    for (const std::uint8_t bad : {0x0b, 0x0c, 0x0e, 0x0f}) {  // field 1, wire types 3/4/6/7
      check(Bytes{bad, 0x01}, field_error(1, "unsupported wire type"), "bad wire type");
    }

    // Unknown fields with one-byte (12..15) and multi-byte (16, 2047) tags
    // between the known ones, each known field twice, in reverse order.
    Bytes mixed;
    for (auto it = s.fields.rbegin(); it != s.fields.rend(); ++it) {
      put_field(mixed, it->first, it->second);
      put_field(mixed, 12 + static_cast<int>(mixed.size() % 4), WireType::varint);
      put_field(mixed, it->first, it->second);
      put_field(mixed, 16, WireType::length_delimited);
      put_field(mixed, 2047, WireType::fixed32);
    }
    check(finish(mixed), "ok", "unknown, repeated and reordered fields");

    // A 5-byte value (the inline window) and a 10-byte one (the longest),
    // each whole with 10 bytes behind it, and each cut after every one of
    // its bytes, where the message ends inside its last 10 bytes.
    for (const auto& [field, type] : s.fields) {
      if (type != WireType::varint) continue;
      for (const std::uint64_t value : {std::uint64_t{1} << 30, ~std::uint64_t{0}}) {
        Bytes whole;
        put_tag(whole, field, type);
        const std::size_t value_start = whole.size();
        put_varint(whole, value);
        const std::size_t value_end = whole.size();
        for (int pad = 0; pad < 10; ++pad) put_field(whole, 13, WireType::varint);
        check(finish(whole), "", "long varint with 10 bytes behind it");
        for (std::size_t cut = value_start; cut < value_end; ++cut) {
          const Bytes body(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(cut));
          check(body, field_error(field, "truncated"), "varint cut at the end");
        }
      }
    }
  }

  // The reference reads varints with the same primitive, so the values are
  // checked against their encoding too: every length from 1 to 10 bytes,
  // read inline (10 bytes behind) and at the message tail.
  for (int bits = 0; bits <= 64; ++bits) {
    const std::uint64_t value = bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (const bool tail : {false, true}) {
      Bytes ue;
      if (!tail) {
        for (int pad = 0; pad < 10; ++pad) put_field(ue, 13, WireType::varint);
      }
      put_tag(ue, 7, WireType::varint);
      put_varint(ue, value);
      if (!tail) {
        for (int pad = 0; pad < 10; ++pad) put_field(ue, 13, WireType::varint);
      }
      StatsReply reply;
      ASSERT_TRUE(StatsReply::decode_body_into(wrap(3, ue), reply).ok());
      ASSERT_EQ(reply.ue_reports.size(), 1u);
      EXPECT_EQ(reply.ue_reports[0].dl_bytes_delivered, value) << bits << " bits, tail " << tail;
    }
  }
}

// ------------------------------------------------------ reference bodies --

StatsReply make_reply(bool rsrp) {
  StatsReply reply;
  reply.request_id = 3;
  reply.subframe = 123456;
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int u = 0; u < 16; ++u) {
    UeStatsReport ue;
    ue.rnti = static_cast<lte::Rnti>(70 + u);
    for (auto& bsr : ue.bsr_bytes) bsr = static_cast<std::uint32_t>(next(40'001));
    ue.phr_db = static_cast<std::int32_t>(next(41)) - 5;
    ue.wb_cqi = static_cast<std::uint8_t>(1 + next(15));
    ue.wb_cqi_protected = ue.wb_cqi;
    ue.rlc_queue_bytes = static_cast<std::uint32_t>(next(200'001));
    ue.pending_harq = static_cast<std::uint32_t>(next(9));
    ue.dl_bytes_delivered = next(std::uint64_t{1} << 30);
    ue.ul_bytes_received = next(std::uint64_t{1} << 28);
    ue.ul_buffer_bytes = static_cast<std::uint32_t>(next(20'001));
    if (rsrp) {
      ue.rsrp.push_back({1, -90.25 - u});
      ue.rsrp.push_back({2, -101.5});
    }
    reply.ue_reports.push_back(ue);
  }
  CellStatsReport cell;
  cell.cell_id = 1;
  cell.dl_prbs_in_use = 42;
  cell.ul_prbs_in_use = 11;
  cell.active_ues = 16;
  reply.cell_reports.push_back(cell);
  return reply;
}

DlMacConfig make_dl_config() {
  DlMacConfig config;
  config.cell_id = 1;
  config.target_subframe = 123460;
  for (int i = 0; i < 16; ++i) {
    lte::DlDci dci;
    dci.rnti = static_cast<lte::Rnti>(70 + i);
    dci.rbs.set_range(i * 6, 6);  // DCI 10 straddles the word boundary
    dci.mcs = 4 + i;
    dci.harq_pid = static_cast<std::uint8_t>(i % 8);
    dci.new_data = i % 3 != 0;
    dci.carrier = static_cast<std::uint8_t>(i % 5 == 0 ? 1 : 0);
    config.dcis.push_back(dci);
  }
  return config;
}

template <typename M>
Bytes body_of(const M& message) {
  WireEncoder enc;
  message.encode_body(enc);
  return enc.take();
}

/// Every truncation, every byte value at every offset, and seeded
/// multi-byte overwrites of `valid`, decoded both ways. Returns the number
/// of bodies that disagreed and reports the first.
template <typename M>
int sweep(const Codec<M>& codec, const Bytes& valid, std::uint64_t seed) {
  M reused;
  int mismatches = 0;
  const auto run = [&](std::span<const std::uint8_t> bytes) {
    const std::string diff = compare(codec, bytes, reused);
    if (!diff.empty() && mismatches++ == 0) ADD_FAILURE() << diff;
  };
  run(valid);
  for (std::size_t len = 0; len < valid.size(); ++len) run(std::span(valid.data(), len));
  Bytes mutated = valid;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (int value = 0; value < 256; ++value) {
      mutated[i] = static_cast<std::uint8_t>(value);
      run(mutated);
    }
    mutated[i] = valid[i];
  }
  std::uint64_t state = seed;
  const auto next = [&](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };
  for (int round = 0; round < 4000; ++round) {
    mutated = valid;
    const auto writes = 2 + next(7);
    for (std::uint64_t w = 0; w < writes; ++w) {
      mutated[next(mutated.size())] = static_cast<std::uint8_t>(next(256));
    }
    if (next(4) == 0) mutated.resize(next(mutated.size() + 1));
    run(mutated);
  }
  return mismatches;
}

// The production decoders against the checked reference over realistic
// bodies and everything one or a few corrupted bytes make of them.
TEST(ProtoRobustness, FastArmsMatchReferenceDecoder) {
  const Bytes with_rsrp = body_of(make_reply(true));
  const Bytes without_rsrp = body_of(make_reply(false));
  const Bytes dl = body_of(make_dl_config());
  Envelope envelope;
  envelope.type = MessageType::stats_reply;
  envelope.xid = 77;
  envelope.epoch = 3;
  envelope.queue_status = 1;
  envelope.throttle_hint = 4;
  envelope.ts_us = 123'456'789;
  envelope.ts_echo_us = 123'000;
  envelope.master_epoch = 2;
  envelope.retry_after_ms = 40;
  envelope.body = Bytes(without_rsrp.begin(), without_rsrp.begin() + 24);
  const Bytes env = envelope.encode();

  // The reference bodies decode, and to what was encoded.
  StatsReply reply;
  ASSERT_TRUE(StatsReply::decode_body_into(with_rsrp, reply).ok());
  EXPECT_TRUE(same(reply, make_reply(true)));
  DlMacConfig config;
  ASSERT_TRUE(DlMacConfig::decode_body_into(dl, config).ok());
  EXPECT_TRUE(same(config, make_dl_config()));
  Envelope decoded;
  ASSERT_TRUE(Envelope::decode_into(env, decoded).ok());
  EXPECT_TRUE(same(decoded, envelope));

  EXPECT_EQ(sweep(kStatsReply, with_rsrp, 0x9e3779b97f4a7c15ull), 0) << "StatsReply with RSRP";
  EXPECT_EQ(sweep(kStatsReply, without_rsrp, 0xd1b54a32d192ed03ull), 0)
      << "StatsReply without RSRP";
  EXPECT_EQ(sweep(kDlMacConfig, dl, 0x8cb92ba72f3d8dd7ull), 0) << "DlMacConfig";
  EXPECT_EQ(sweep(kEnvelope, env, 0xa0761d6478bd642full), 0) << "Envelope";
}

}  // namespace
