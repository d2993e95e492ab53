// Properties of every wire field table (proto/fields.h), driven by the
// tables themselves: one row moved off its default reaches the wire, and
// the decode of those bytes encodes to them again, so no row is lost or
// moved on the way.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "field_rows.h"
#include "proto/checkpoint.h"
#include "proto/messages.h"

namespace flexran::proto {
namespace {

using testing::change_row;

// The build rejects a row whose kind does not fit its member's type.
static_assert(kind_fits<Kind::varint, lte::Rnti>());
static_assert(kind_fits<Kind::varint, EventType>());
static_assert(!kind_fits<Kind::svarint, std::uint32_t>());
static_assert(!kind_fits<Kind::fixed64, float>());
static_assert(!kind_fits<Kind::string, std::vector<std::uint8_t>>());
static_assert(!kind_fits<Kind::message, int>());
static_assert(kind_fits<Kind::svarint, double, CentiDb>());

// The codec is expanded once per table here, and the per-row checks stay
// out of line: the expansion is always inlined, so expanding it per row
// would multiply this file's compile time.
template <typename M>
[[gnu::noinline]] std::vector<std::uint8_t> encode_record(const M& record) {
  WireEncoder enc;
  table_t<M>::encode(enc, record);
  return enc.take();
}

/// `bytes` decoded as an M and encoded again; empty, with `error` set,
/// when the decode fails.
template <typename M>
[[gnu::noinline]] std::vector<std::uint8_t> reencode(const std::vector<std::uint8_t>& bytes,
                                                     std::string& error) {
  M decoded;
  WireDecoder dec(bytes);
  table_t<M>::decode(dec, decoded);
  if (!dec.ok()) {
    error = dec.status().error().message;
    return {};
  }
  return encode_record(decoded);
}

template <typename M>
void expect_rows_round_trip(const char* name) {
  const auto default_bytes = encode_record(M{});
  table_t<M>::each([&]<typename Row>() __attribute__((noinline)) {
    SCOPED_TRACE(std::string(name) + " field " + std::to_string(Row::number));
    M changed{};
    change_row<Row>(changed);
    const auto bytes = encode_record(changed);
    EXPECT_NE(bytes, default_bytes) << "the row does not reach the wire";
    std::string error;
    EXPECT_EQ(reencode<M>(bytes, error), bytes) << error;
  });
}

TEST(FieldTables, EveryRowRoundTripsAlone) {
  expect_rows_round_trip<Envelope>("Envelope");
  expect_rows_round_trip<Hello>("Hello");
  expect_rows_round_trip<EchoRequest>("EchoRequest");
  expect_rows_round_trip<EchoReply>("EchoReply");
  expect_rows_round_trip<CellConfigMsg>("CellConfigMsg");
  expect_rows_round_trip<EnbConfigReply>("EnbConfigReply");
  expect_rows_round_trip<UeConfigMsg>("UeConfigMsg");
  expect_rows_round_trip<UeConfigReply>("UeConfigReply");
  expect_rows_round_trip<LcConfigMsg>("LcConfigMsg");
  expect_rows_round_trip<LcConfigReply>("LcConfigReply");
  expect_rows_round_trip<StatsRequest>("StatsRequest");
  expect_rows_round_trip<RsrpMeasurement>("RsrpMeasurement");
  expect_rows_round_trip<UeStatsReport>("UeStatsReport");
  expect_rows_round_trip<CellStatsReport>("CellStatsReport");
  expect_rows_round_trip<StatsReply>("StatsReply");
  expect_rows_round_trip<lte::DlDci>("DlDci");
  expect_rows_round_trip<DlMacConfig>("DlMacConfig");
  expect_rows_round_trip<lte::UlDci>("UlDci");
  expect_rows_round_trip<UlMacConfig>("UlMacConfig");
  expect_rows_round_trip<HandoverCommand>("HandoverCommand");
  expect_rows_round_trip<AbsConfig>("AbsConfig");
  expect_rows_round_trip<CarrierRestriction>("CarrierRestriction");
  expect_rows_round_trip<DrxConfig>("DrxConfig");
  expect_rows_round_trip<ScellCommand>("ScellCommand");
  expect_rows_round_trip<EventNotification>("EventNotification");
  expect_rows_round_trip<EventSubscription>("EventSubscription");
  expect_rows_round_trip<ControlDelegation>("ControlDelegation");
  expect_rows_round_trip<PolicyReconfiguration>("PolicyReconfiguration");
  expect_rows_round_trip<CheckpointAgent>("CheckpointAgent");
  expect_rows_round_trip<MasterCheckpoint>("MasterCheckpoint");
}

}  // namespace
}  // namespace flexran::proto
