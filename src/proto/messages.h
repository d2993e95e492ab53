// FlexRAN protocol messages (paper Sec. 4.3.2 and Table 1). Five call
// classes flow between master and agent:
//   configuration  - EnbConfig/UeConfig/LcConfig request+reply (synchronous)
//   statistics     - StatsRequest / StatsReply (async, one-off|periodic|triggered)
//   commands       - DlMacConfig / UlMacConfig / HandoverCommand / AbsConfig
//   event-triggers - EventNotification (subframe tick = master-agent sync,
//                    UE attach, RACH, scheduling request)
//   delegation     - ControlDelegation (VSF updation) / PolicyReconfiguration
// Every message travels inside an Envelope carrying version/type/xid.
//
// Each message and nested record declares its wire fields once, in its
// `Fields` table (proto/fields.h): rows in wire order, each naming its
// field number, member and kind. encode_body/decode_body/decode_body_into
// are expanded from that table; rows marked "hand-coded" are the few whose
// wire form differs from the memory form.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lte/abs.h"
#include "lte/allocation.h"
#include "lte/types.h"
#include "net/flow_control.h"
#include "proto/fields.h"
#include "proto/wire.h"
#include "util/result.h"

namespace flexran::proto {

constexpr std::uint8_t kProtocolVersion = 1;

enum class MessageType : std::uint8_t {
  hello = 1,
  echo_request = 2,
  echo_reply = 3,
  enb_config_request = 4,
  enb_config_reply = 5,
  ue_config_request = 6,
  ue_config_reply = 7,
  lc_config_request = 8,
  lc_config_reply = 9,
  stats_request = 10,
  stats_reply = 11,
  dl_mac_config = 12,
  ul_mac_config = 13,
  handover_command = 14,
  abs_config = 15,
  event_notification = 16,
  control_delegation = 17,
  policy_reconfiguration = 18,
  event_subscription = 19,
  carrier_restriction = 20,
  drx_config = 21,
  scell_command = 22,
};

/// Overhead accounting buckets used by the Fig. 7 experiment.
enum class MessageCategory : std::uint8_t {
  agent_management,  // hello, echo, config exchange, non-sync events
  sync,              // subframe-tick notifications (master-agent TTI sync)
  stats,             // statistics reports
  commands,          // scheduling decisions and other control commands
  delegation,        // VSF updation / policy reconfiguration
};

const char* to_string(MessageType type);
const char* to_string(MessageCategory category);

// ---------------------------------------------------------------- envelope

struct Envelope {
  std::uint8_t version = kProtocolVersion;
  MessageType type = MessageType::hello;
  std::uint32_t xid = 0;
  /// Session epoch: incremented by the agent on every (re)connect and
  /// echoed by the master once learned. 0 = epoch-unaware sender (accepted
  /// everywhere, for compatibility with pre-epoch peers). Receivers fence
  /// messages carrying an epoch older than the current session, so commands
  /// and reports in flight across an agent restart cannot be misapplied.
  std::uint32_t epoch = 0;
  /// Master queue status piggybacked on every master -> agent message while
  /// the master is under pressure (docs/overload_protection.md): the
  /// numeric OverloadState (0 = normal, 1 = elevated, 2 = critical).
  /// 0 is omitted on the wire, so a healthy control channel carries no
  /// overhead and pre-overload peers interoperate unchanged.
  std::uint8_t queue_status = 0;
  /// Report-throttle hint: multiplier the agent applies to every periodic
  /// report period while set (0/1 = no throttling). Covers registrations
  /// the master never issued itself (e.g. operator tooling driving the
  /// agent directly); master-issued requests are additionally renegotiated
  /// through the stats-request machinery.
  std::uint32_t throttle_hint = 0;
  /// Sender timestamp in simulated microseconds, stamped by the master on
  /// outgoing messages while observability is enabled
  /// (docs/observability.md). 0 (omitted) = not stamped.
  std::uint64_t ts_us = 0;
  /// Timestamp echo: the agent returns the most recent master `ts_us` it
  /// received, once, on its next outgoing message. The master records
  /// `now - ts_echo_us` into the per-agent end-to-end control-latency
  /// histogram. 0 (omitted) = nothing to echo.
  std::uint64_t ts_echo_us = 0;
  /// Master incarnation epoch (docs/fault_tolerance.md "Master restart"):
  /// bumped on every master (re)start and stamped on every master send
  /// while crash recovery is enabled. The mirror image of the agent-side
  /// session `epoch` above: agents fence messages from an older incarnation
  /// (commands issued by a dead master must not be applied) and treat a
  /// higher one as "master restarted -- re-hello and full re-sync".
  /// 0 is omitted on the wire: an incarnation-unaware sender is accepted
  /// everywhere and a recovery-disabled deployment is wire-identical.
  std::uint32_t master_epoch = 0;
  /// Re-sync admission deferral hint, milliseconds: stamped by a restarted
  /// master on messages to an agent whose full re-sync the token-bucket
  /// admission gate has deferred (piggybacked like `throttle_hint`). The
  /// agent holds its hello retries for roughly this long; the master drives
  /// the deferred re-sync itself once a token frees up. 0 (omitted) = no
  /// deferral in effect.
  std::uint32_t retry_after_ms = 0;
  std::vector<std::uint8_t> body;

  using Fields =
      Table<Field<1, &Envelope::version, Kind::varint>,
            Field<2, &Envelope::type, Kind::varint>,
            Field<3, &Envelope::xid, Kind::varint, Presence::unless_default>,
            Field<4, &Envelope::body, Kind::bytes>,
            Field<5, &Envelope::epoch, Kind::varint, Presence::unless_default>,
            Field<6, &Envelope::queue_status, Kind::varint, Presence::unless_default>,
            Field<7, &Envelope::throttle_hint, Kind::varint, Presence::unless_default>,
            Field<8, &Envelope::ts_us, Kind::varint, Presence::unless_default>,
            Field<9, &Envelope::ts_echo_us, Kind::varint, Presence::unless_default>,
            Field<10, &Envelope::master_epoch, Kind::varint, Presence::unless_default>,
            Field<11, &Envelope::retry_after_ms, Kind::varint, Presence::unless_default>>;

  std::vector<std::uint8_t> encode() const;
  static util::Result<Envelope> decode(std::span<const std::uint8_t> data);
  /// Allocation-free variant of decode(): resets `out` and decodes into it,
  /// reusing `out.body`'s capacity. Receive paths keep one Envelope per link
  /// and call this per message.
  static util::Status decode_into(std::span<const std::uint8_t> data, Envelope& out);
};

// ------------------------------------------------------- agent management

struct Hello {
  static constexpr MessageType kType = MessageType::hello;
  lte::EnbId enb_id = 0;
  std::string name;
  std::uint32_t n_cells = 1;
  std::vector<std::string> capabilities;
  /// Session epoch of this connection (1 on first connect; higher values
  /// announce a reconnect and make the master run a full re-sync).
  std::uint32_t epoch = 0;

  using Fields = Table<Field<1, &Hello::enb_id, Kind::varint>,
                       Field<2, &Hello::name, Kind::string>,
                       Field<3, &Hello::n_cells, Kind::varint>,
                       Field<4, &Hello::capabilities, Kind::string>,
                       Field<5, &Hello::epoch, Kind::varint, Presence::unless_default>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<Hello> decode_body(std::span<const std::uint8_t> data);
};

/// Echo doubles as liveness probe and time sync (carries the agent's
/// current subframe and a timestamp to estimate RTT).
struct EchoRequest {
  static constexpr MessageType kType = MessageType::echo_request;
  std::int64_t subframe = 0;
  std::int64_t timestamp_us = 0;

  using Fields = Table<Field<1, &EchoRequest::subframe, Kind::svarint>,
                       Field<2, &EchoRequest::timestamp_us, Kind::svarint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<EchoRequest> decode_body(std::span<const std::uint8_t> data);
};

struct EchoReply {
  static constexpr MessageType kType = MessageType::echo_reply;
  std::int64_t subframe = 0;
  std::int64_t echoed_timestamp_us = 0;

  using Fields = Table<Field<1, &EchoReply::subframe, Kind::svarint>,
                       Field<2, &EchoReply::echoed_timestamp_us, Kind::svarint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<EchoReply> decode_body(std::span<const std::uint8_t> data);
};

// ----------------------------------------------------------- configuration

struct EnbConfigRequest {
  static constexpr MessageType kType = MessageType::enb_config_request;
  void encode_body(WireEncoder&) const {}
};

struct CellConfigMsg {
  lte::CellId cell_id = 0;
  double bandwidth_mhz = 10.0;
  std::uint8_t duplex = 0;
  std::uint8_t tx_mode = 1;
  std::uint8_t antenna_ports = 1;
  std::uint16_t band = 5;
  std::uint16_t pci = 0;

  using Fields = Table<Field<1, &CellConfigMsg::cell_id, Kind::varint>,
                       Field<2, &CellConfigMsg::bandwidth_mhz, Kind::fixed64>,
                       Field<3, &CellConfigMsg::duplex, Kind::varint>,
                       Field<4, &CellConfigMsg::tx_mode, Kind::varint>,
                       Field<5, &CellConfigMsg::antenna_ports, Kind::varint>,
                       Field<6, &CellConfigMsg::band, Kind::varint>,
                       Field<7, &CellConfigMsg::pci, Kind::varint>>;
  static CellConfigMsg from(const lte::CellConfig& config);
  lte::CellConfig to_cell_config() const;
};

struct EnbConfigReply {
  static constexpr MessageType kType = MessageType::enb_config_reply;
  lte::EnbId enb_id = 0;
  std::vector<CellConfigMsg> cells;

  using Fields = Table<Field<1, &EnbConfigReply::enb_id, Kind::varint>,
                       Field<2, &EnbConfigReply::cells, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<EnbConfigReply> decode_body(std::span<const std::uint8_t> data);
};

struct UeConfigRequest {
  static constexpr MessageType kType = MessageType::ue_config_request;
  void encode_body(WireEncoder&) const {}
};

struct UeConfigMsg {
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::CellId primary_cell = 0;
  std::uint8_t tx_mode = 1;
  std::uint8_t ue_category = 4;
  bool carrier_aggregation = false;

  using Fields = Table<Field<1, &UeConfigMsg::rnti, Kind::varint>,
                       Field<2, &UeConfigMsg::primary_cell, Kind::varint>,
                       Field<3, &UeConfigMsg::tx_mode, Kind::varint>,
                       Field<4, &UeConfigMsg::ue_category, Kind::varint>,
                       Field<5, &UeConfigMsg::carrier_aggregation, Kind::varint>>;
  static UeConfigMsg from(const lte::UeConfig& config);
  lte::UeConfig to_ue_config() const;
};

struct UeConfigReply {
  static constexpr MessageType kType = MessageType::ue_config_reply;
  std::vector<UeConfigMsg> ues;

  using Fields = Table<Field<1, &UeConfigReply::ues, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<UeConfigReply> decode_body(std::span<const std::uint8_t> data);
};

struct LcConfigRequest {
  static constexpr MessageType kType = MessageType::lc_config_request;
  void encode_body(WireEncoder&) const {}
};

struct LcConfigMsg {
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::Lcid lcid = lte::kDefaultDrb;
  std::uint8_t lc_group = 1;

  using Fields = Table<Field<1, &LcConfigMsg::rnti, Kind::varint>,
                       Field<2, &LcConfigMsg::lcid, Kind::varint>,
                       Field<3, &LcConfigMsg::lc_group, Kind::varint>>;
};

struct LcConfigReply {
  static constexpr MessageType kType = MessageType::lc_config_reply;
  std::vector<LcConfigMsg> channels;

  using Fields = Table<Field<1, &LcConfigReply::channels, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<LcConfigReply> decode_body(std::span<const std::uint8_t> data);
};

// --------------------------------------------------------------- statistics

enum class ReportMode : std::uint8_t { one_off = 0, periodic = 1, triggered = 2 };

/// Bitmask of what to include in a stats report.
namespace stats_flags {
constexpr std::uint32_t kBsr = 1u << 0;
constexpr std::uint32_t kCqi = 1u << 1;
constexpr std::uint32_t kPhr = 1u << 2;
constexpr std::uint32_t kRlcQueue = 1u << 3;
constexpr std::uint32_t kMacCounters = 1u << 4;
constexpr std::uint32_t kCellLoad = 1u << 5;
constexpr std::uint32_t kHarq = 1u << 6;
constexpr std::uint32_t kRsrp = 1u << 7;
constexpr std::uint32_t kAllUeFlags =
    kBsr | kCqi | kPhr | kRlcQueue | kMacCounters | kHarq | kRsrp;
constexpr std::uint32_t kAll = kAllUeFlags | kCellLoad;
}  // namespace stats_flags

struct StatsRequest {
  static constexpr MessageType kType = MessageType::stats_request;
  std::uint32_t request_id = 0;
  ReportMode mode = ReportMode::one_off;
  /// For periodic mode: interval in TTIs.
  std::uint32_t periodicity_ttis = 1;
  std::uint32_t flags = stats_flags::kAll;
  /// Empty = all UEs.
  std::vector<lte::Rnti> ues;

  using Fields = Table<Field<1, &StatsRequest::request_id, Kind::varint>,
                       Field<2, &StatsRequest::mode, Kind::varint>,
                       Field<3, &StatsRequest::periodicity_ttis, Kind::varint>,
                       Field<4, &StatsRequest::flags, Kind::varint>,
                       Field<5, &StatsRequest::ues, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<StatsRequest> decode_body(std::span<const std::uint8_t> data);
};

/// Hand-coded: RSRP travels in centi-dB. llround (not truncation) so
/// decode -> re-encode is a fixpoint.
struct CentiDb {
  static std::int64_t to_wire(double dbm) { return std::llround(dbm * 100.0); }
  static void from_wire(double& dbm, std::int64_t centi) {
    dbm = static_cast<double>(centi) / 100.0;
  }
};

/// One RRC measurement entry: received power from a cell (serving included).
struct RsrpMeasurement {
  lte::CellId cell_id = 0;
  /// RSRP in dBm.
  double rsrp_dbm = -140.0;

  using Fields = Table<Field<1, &RsrpMeasurement::cell_id, Kind::varint>,
                       Converted<2, &RsrpMeasurement::rsrp_dbm, Kind::svarint, CentiDb>>;
};

/// Hand-coded: bsr_bytes is a fixed array of kNumLcGroups entries; a peer
/// that sends more loses the extras, counted in
/// decode_anomalies().bsr_overflow rather than failing the decode.
struct BsrOverflow {
  static void dropped();
};

struct UeStatsReport {
  lte::Rnti rnti = lte::kInvalidRnti;
  /// Buffer status per logical channel group, bytes.
  std::array<std::uint32_t, lte::kNumLcGroups> bsr_bytes{};
  std::int32_t phr_db = 20;
  std::uint8_t wb_cqi = 0;
  /// CQI measured on protected (almost-blank) subframes -- 36.331 restricted
  /// measurements; what an eICIC coordinator uses for small-cell UEs.
  std::uint8_t wb_cqi_protected = 0;
  std::uint32_t rlc_queue_bytes = 0;
  std::uint32_t pending_harq = 0;
  std::uint64_t dl_bytes_delivered = 0;
  std::uint64_t ul_bytes_received = 0;
  /// Uplink buffer status (from the UE's BSR MAC control elements), bytes.
  std::uint32_t ul_buffer_bytes = 0;
  /// RRC measurement report: per-cell RSRP (paper Table 1 lists "reference
  /// signal received power measurements for the RRC module"). Populated for
  /// UEs with a radio profile; empty under abstract channel models.
  std::vector<RsrpMeasurement> rsrp;

  /// Rows in wire order (field 10 last); each names the stats_flags bit
  /// that selects it into a report.
  using Fields = Table<
      Field<1, &UeStatsReport::rnti, Kind::varint>,
      Converted<2, &UeStatsReport::bsr_bytes, Kind::varint, BsrOverflow, Presence::always,
                stats_flags::kBsr>,
      Field<3, &UeStatsReport::phr_db, Kind::svarint, Presence::always, stats_flags::kPhr>,
      Field<4, &UeStatsReport::wb_cqi, Kind::varint, Presence::always, stats_flags::kCqi>,
      Field<5, &UeStatsReport::rlc_queue_bytes, Kind::varint, Presence::always,
            stats_flags::kRlcQueue>,
      Field<6, &UeStatsReport::pending_harq, Kind::varint, Presence::unless_default,
            stats_flags::kHarq>,
      Field<7, &UeStatsReport::dl_bytes_delivered, Kind::varint, Presence::unless_default,
            stats_flags::kMacCounters>,
      Field<8, &UeStatsReport::ul_bytes_received, Kind::varint, Presence::unless_default,
            stats_flags::kMacCounters>,
      Field<9, &UeStatsReport::wb_cqi_protected, Kind::varint, Presence::unless_default,
            stats_flags::kCqi>,
      Field<11, &UeStatsReport::ul_buffer_bytes, Kind::varint, Presence::unless_default,
            stats_flags::kBsr>,
      Field<10, &UeStatsReport::rsrp, Kind::message, Presence::always, stats_flags::kRsrp>>;

  std::uint32_t total_bsr() const {
    std::uint32_t total = 0;
    for (auto b : bsr_bytes) total += b;
    return total;
  }
  /// Resets every field to its default, keeping the RSRP list's capacity.
  void reset();
};

struct CellStatsReport {
  lte::CellId cell_id = 0;
  double noise_interference_dbm = -97.0;
  std::uint32_t dl_prbs_in_use = 0;
  std::uint32_t ul_prbs_in_use = 0;
  std::uint32_t active_ues = 0;

  using Fields = Table<Field<1, &CellStatsReport::cell_id, Kind::varint>,
                       Field<2, &CellStatsReport::noise_interference_dbm, Kind::fixed64>,
                       Field<3, &CellStatsReport::dl_prbs_in_use, Kind::varint>,
                       Field<4, &CellStatsReport::ul_prbs_in_use, Kind::varint>,
                       Field<5, &CellStatsReport::active_ues, Kind::varint>>;
};

struct StatsReply {
  static constexpr MessageType kType = MessageType::stats_reply;
  std::uint32_t request_id = 0;
  std::int64_t subframe = 0;
  std::vector<UeStatsReport> ue_reports;
  std::vector<CellStatsReport> cell_reports;

  using Fields = Table<Field<1, &StatsReply::request_id, Kind::varint>,
                       Field<2, &StatsReply::subframe, Kind::svarint>,
                       Field<3, &StatsReply::ue_reports, Kind::message>,
                       Field<4, &StatsReply::cell_reports, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<StatsReply> decode_body(std::span<const std::uint8_t> data);
  /// Allocation-free variant of decode_body(): resets `out` and decodes into
  /// it, reusing the report vectors (and each report's rsrp vector) in place.
  /// With a warm `out` of the same shape this performs zero heap allocations.
  static util::Status decode_body_into(std::span<const std::uint8_t> data, StatsReply& out);
};

// ----------------------------------------------------------------- commands

/// Hand-coded: a DCI's PRB bitmap travels as its two 64-bit words.
template <int Word>
struct RbWord {
  static std::uint64_t to_wire(const lte::RbAllocation& rbs) { return rbs.word(Word); }
  static void from_wire(lte::RbAllocation& rbs, std::uint64_t value) {
    rbs = lte::RbAllocation::from_words(Word == 0 ? value : rbs.word(0),
                                        Word == 1 ? value : rbs.word(1));
  }
};

template <>
struct TableOf<lte::DlDci> {
  using type = Table<Field<1, &lte::DlDci::rnti, Kind::varint>,
                     Converted<2, &lte::DlDci::rbs, Kind::varint, RbWord<0>>,
                     Converted<3, &lte::DlDci::rbs, Kind::varint, RbWord<1>,
                               Presence::unless_default>,
                     Field<4, &lte::DlDci::mcs, Kind::varint>,
                     Field<5, &lte::DlDci::harq_pid, Kind::varint>,
                     Field<6, &lte::DlDci::new_data, Kind::varint>,
                     Field<7, &lte::DlDci::carrier, Kind::varint, Presence::unless_default>>;
};

template <>
struct TableOf<lte::UlDci> {
  using type = Table<Field<1, &lte::UlDci::rnti, Kind::varint>,
                     Converted<2, &lte::UlDci::rbs, Kind::varint, RbWord<0>>,
                     Converted<3, &lte::UlDci::rbs, Kind::varint, RbWord<1>,
                               Presence::unless_default>,
                     Field<4, &lte::UlDci::mcs, Kind::varint>>;
};

struct DlMacConfig {
  static constexpr MessageType kType = MessageType::dl_mac_config;
  lte::CellId cell_id = 0;
  std::int64_t target_subframe = 0;
  std::vector<lte::DlDci> dcis;

  using Fields = Table<Field<1, &DlMacConfig::cell_id, Kind::varint>,
                       Field<2, &DlMacConfig::target_subframe, Kind::svarint>,
                       Field<3, &DlMacConfig::dcis, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  /// The StatsReply idiom: decodes over `out`'s DCI slots, so a warm `out`
  /// with as many DCIs touches no allocator.
  static util::Status decode_body_into(std::span<const std::uint8_t> data, DlMacConfig& out);
};

struct UlMacConfig {
  static constexpr MessageType kType = MessageType::ul_mac_config;
  lte::CellId cell_id = 0;
  std::int64_t target_subframe = 0;
  std::vector<lte::UlDci> dcis;

  using Fields = Table<Field<1, &UlMacConfig::cell_id, Kind::varint>,
                       Field<2, &UlMacConfig::target_subframe, Kind::svarint>,
                       Field<3, &UlMacConfig::dcis, Kind::message>>;
  void encode_body(WireEncoder& enc) const;
  /// The StatsReply idiom: decodes over `out`'s DCI slots, so a warm `out`
  /// with as many DCIs touches no allocator.
  static util::Status decode_body_into(std::span<const std::uint8_t> data, UlMacConfig& out);
};

struct HandoverCommand {
  static constexpr MessageType kType = MessageType::handover_command;
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::CellId source_cell = 0;
  lte::CellId target_cell = 0;

  using Fields = Table<Field<1, &HandoverCommand::rnti, Kind::varint>,
                       Field<2, &HandoverCommand::source_cell, Kind::varint>,
                       Field<3, &HandoverCommand::target_cell, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<HandoverCommand> decode_body(std::span<const std::uint8_t> data);
};

/// Hand-coded: an ABS pattern travels as its 40 bits in a u64.
struct AbsBits {
  static std::uint64_t to_wire(const lte::AbsPattern& pattern) { return pattern.to_bits(); }
  static void from_wire(lte::AbsPattern& pattern, std::uint64_t bits) {
    pattern = lte::AbsPattern::from_bits(bits);
  }
};

struct AbsConfig {
  static constexpr MessageType kType = MessageType::abs_config;
  lte::CellId cell_id = 0;
  lte::AbsPattern pattern;
  /// True = this cell mutes during ABS (macro role); false = the pattern
  /// only marks protected subframes (small-cell role).
  bool mute_during_abs = true;

  using Fields = Table<Field<1, &AbsConfig::cell_id, Kind::varint>,
                       Converted<2, &AbsConfig::pattern, Kind::varint, AbsBits>,
                       Field<3, &AbsConfig::mute_during_abs, Kind::varint>>;

  void encode_body(WireEncoder& enc) const;
  static util::Result<AbsConfig> decode_body(std::span<const std::uint8_t> data);
};

/// Restricts the downlink carrier to its first `max_dl_prbs` PRBs
/// (0 = unrestricted). Added for the Licensed Shared Access use case the
/// paper sketches in Sec. 7.1: an incumbent reclaiming part of the band is
/// enforced by evacuating the upper PRBs. Also a demonstration of protocol
/// extensibility (Sec. 7.2): a new technology-specific message slots in
/// without touching existing ones.
struct CarrierRestriction {
  static constexpr MessageType kType = MessageType::carrier_restriction;
  lte::CellId cell_id = 0;
  std::uint16_t max_dl_prbs = 0;

  using Fields = Table<Field<1, &CarrierRestriction::cell_id, Kind::varint>,
                       Field<2, &CarrierRestriction::max_dl_prbs, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<CarrierRestriction> decode_body(std::span<const std::uint8_t> data);
};

/// DRX (discontinuous reception) command for a UE -- paper Table 1 lists
/// "DRX commands" among the Commands call class. The UE listens for the
/// first `on_duration_ttis` of every `cycle_ttis`-long DRX cycle and sleeps
/// for the rest; cycle 0 disables DRX.
struct DrxConfig {
  static constexpr MessageType kType = MessageType::drx_config;
  lte::Rnti rnti = lte::kInvalidRnti;
  std::uint16_t cycle_ttis = 0;
  std::uint16_t on_duration_ttis = 0;

  using Fields = Table<Field<1, &DrxConfig::rnti, Kind::varint>,
                       Field<2, &DrxConfig::cycle_ttis, Kind::varint>,
                       Field<3, &DrxConfig::on_duration_ttis, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<DrxConfig> decode_body(std::span<const std::uint8_t> data);
};

/// (De)activates a UE's secondary component carrier -- paper Table 1 lists
/// "(de)activating component carriers in carrier aggregation" among the
/// Commands call class.
struct ScellCommand {
  static constexpr MessageType kType = MessageType::scell_command;
  lte::Rnti rnti = lte::kInvalidRnti;
  bool activate = true;

  using Fields = Table<Field<1, &ScellCommand::rnti, Kind::varint>,
                       Field<2, &ScellCommand::activate, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<ScellCommand> decode_body(std::span<const std::uint8_t> data);
};

// ----------------------------------------------------------- event triggers

enum class EventType : std::uint8_t {
  subframe_tick = 1,  // master-agent sync, sent every TTI when enabled
  ue_attach = 2,
  ue_detach = 3,
  rach_attempt = 4,
  scheduling_request = 5,
  // Master-internal lifecycle events (never sent on the wire): surfaced to
  // applications by the Event Notification Service so they can react to an
  // agent's control channel going away and coming back.
  agent_disconnected = 6,
  agent_reconnected = 7,
  /// A tracked request exhausted its retries; `xid` identifies it.
  request_timeout = 8,
  // Delegated-control containment (docs/delegation_safety.md): triggered
  // events the agent sends when guarded VSF execution misbehaves or a
  // policy reconfiguration is (not) applied.
  /// A guarded VSF invocation failed (exception / deadline overrun /
  /// invalid decision) and the slot fell back to the local default for the
  /// TTI. Carries module/vsf/implementation, the failure kind and the
  /// consecutive-failure count.
  vsf_failure = 9,
  /// An implementation crossed the consecutive-failure threshold and was
  /// quarantined in the agent's VSF cache.
  vsf_quarantined = 10,
  /// A policy reconfiguration was validated and applied atomically; `xid`
  /// echoes the PolicyReconfiguration envelope. The master promotes the
  /// matching policy to last-known-good.
  policy_applied = 11,
  /// A policy reconfiguration failed validation and was NOT applied (the
  /// old policy stays active); `detail` carries the reason.
  policy_rejected = 12,
  /// Master-internal: the overload watchdog moved the master to a new
  /// OverloadState (docs/overload_protection.md). `overload_state` carries
  /// the new state, `detail` its name. Emitted once per transition so apps
  /// can back off (or resume) their own signaling.
  overload_state_changed = 13,
};

/// Why a guarded VSF invocation failed (vsf_failure / vsf_quarantined).
enum class VsfFailureKind : std::uint8_t {
  none = 0,
  /// The VSF threw an exception.
  exception = 1,
  /// The invocation exceeded its deadline budget (declared simulated cost
  /// or wall-clock backstop).
  overrun = 2,
  /// The returned SchedulingDecision failed validation (PRB bounds,
  /// overlap, unknown RNTI, MCS range).
  invalid_decision = 3,
};

const char* to_string(VsfFailureKind kind);

struct EventNotification {
  static constexpr MessageType kType = MessageType::event_notification;
  EventType event = EventType::subframe_tick;
  std::int64_t subframe = 0;
  lte::Rnti rnti = lte::kInvalidRnti;
  lte::CellId cell_id = 0;
  /// For request_timeout events: the xid of the failed request. For
  /// policy_applied / policy_rejected: the xid of the policy envelope.
  std::uint32_t xid = 0;
  // ---- delegated-control containment fields (vsf_* / policy_* events) ------
  /// CMI address of the failing slot, e.g. "mac" / "dl_ue_scheduler".
  std::string module;
  std::string vsf;
  /// The cached implementation that failed or was quarantined.
  std::string implementation;
  VsfFailureKind failure_kind = VsfFailureKind::none;
  /// Consecutive failures recorded against the implementation.
  std::uint32_t failure_count = 0;
  /// Human-readable reason (validation error, rejected-policy message).
  std::string detail;
  /// For overload_state_changed: the numeric OverloadState entered
  /// (0 = normal, 1 = elevated, 2 = critical).
  std::uint8_t overload_state = 0;

  using Fields = Table<
      Field<1, &EventNotification::event, Kind::varint>,
      Field<2, &EventNotification::subframe, Kind::svarint>,
      Field<3, &EventNotification::rnti, Kind::varint, Presence::unless_default>,
      Field<4, &EventNotification::cell_id, Kind::varint, Presence::unless_default>,
      Field<5, &EventNotification::xid, Kind::varint, Presence::unless_default>,
      Field<6, &EventNotification::module, Kind::string, Presence::unless_default>,
      Field<7, &EventNotification::vsf, Kind::string, Presence::unless_default>,
      Field<8, &EventNotification::implementation, Kind::string, Presence::unless_default>,
      Field<9, &EventNotification::failure_kind, Kind::varint, Presence::unless_default>,
      Field<10, &EventNotification::failure_count, Kind::varint, Presence::unless_default>,
      Field<11, &EventNotification::detail, Kind::string, Presence::unless_default>,
      Field<12, &EventNotification::overload_state, Kind::varint, Presence::unless_default>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<EventNotification> decode_body(std::span<const std::uint8_t> data);
};

/// Master -> agent: (un)subscribe from event notifications (paper: "the
/// master can choose whether or not to be notified for a specific event
/// occurring at the eNodeB by registering for it at the agent").
struct EventSubscription {
  static constexpr MessageType kType = MessageType::event_subscription;
  std::vector<EventType> events;
  bool enable = true;

  using Fields = Table<Field<1, &EventSubscription::events, Kind::varint>,
                       Field<2, &EventSubscription::enable, Kind::varint>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<EventSubscription> decode_body(std::span<const std::uint8_t> data);
};

// -------------------------------------------------------- control delegation

/// VSF updation: push a control-function implementation to the agent cache.
/// `implementation` names a registered factory; `blob` carries opaque
/// payload (stand-in for the paper's compiled shared library, see DESIGN.md
/// substitution table).
struct ControlDelegation {
  static constexpr MessageType kType = MessageType::control_delegation;
  std::string module;          // e.g. "mac"
  std::string vsf;             // e.g. "dl_ue_scheduler"
  std::string implementation;  // e.g. "local_pf"
  std::uint32_t version = 1;
  std::vector<std::uint8_t> blob;

  using Fields = Table<Field<1, &ControlDelegation::module, Kind::string>,
                       Field<2, &ControlDelegation::vsf, Kind::string>,
                       Field<3, &ControlDelegation::implementation, Kind::string>,
                       Field<4, &ControlDelegation::version, Kind::varint>,
                       Field<5, &ControlDelegation::blob, Kind::bytes, Presence::unless_default>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<ControlDelegation> decode_body(std::span<const std::uint8_t> data);
};

/// Policy reconfiguration: YAML document selecting cached VSF behaviors and
/// setting their parameters (paper Fig. 3).
struct PolicyReconfiguration {
  static constexpr MessageType kType = MessageType::policy_reconfiguration;
  std::string yaml;

  using Fields = Table<Field<1, &PolicyReconfiguration::yaml, Kind::string>>;
  void encode_body(WireEncoder& enc) const;
  static util::Result<PolicyReconfiguration> decode_body(std::span<const std::uint8_t> data);
};

// ------------------------------------------------------------------ helpers

/// Process-wide counters for wire data that decoded without error but lost
/// information on the way: the decoder keeps the message rather than reject
/// it, and counts the loss here so it is visible instead of silent. Surfaced
/// through the master's metrics collector (docs/observability.md).
struct DecodeAnomalies {
  /// UeStatsReport carried more bsr_bytes entries (field 2) than the fixed
  /// kNumLcGroups array holds; the extras were dropped.
  std::atomic<std::uint64_t> bsr_overflow{0};
};

DecodeAnomalies& decode_anomalies();

/// Category for Fig. 7 signaling accounting and traffic class for the
/// overload-protection layer (net::TrafficClass,
/// docs/overload_protection.md), by message type alone. Session and
/// command/config traffic maps to unsheddable classes. For
/// event_notification these return the non-tick answer (agent_management /
/// event); use classify() or the typed overloads below when the body or the
/// message is in hand.
MessageCategory categorize(MessageType type);
net::TrafficClass traffic_class(MessageType type);

/// What a receive path needs before the body is decoded: the accounting
/// category, the traffic class and, for a stats reply, the request_id the
/// ingest queue coalesces on.
struct RxClass {
  MessageCategory category = MessageCategory::agent_management;
  net::TrafficClass traffic_class = net::TrafficClass::config;
  std::uint32_t request_id = 0;
};

/// One shallow pass over `body`, reading up to its field 1 and no further.
/// Event notifications split by event type: subframe ticks are `sync` in
/// both (coalescible, superseded every TTI), everything else is
/// agent_management / event. A body that breaks before its field 1 reads as
/// a non-tick event or as request_id 0, one that breaks after it by its
/// field 1; either way the full decode at apply rejects it.
RxClass classify(MessageType type, std::span<const std::uint8_t> body);

/// Typed variants: the same answers as classify() without a pass over the
/// body. Send paths that hold the message struct use these.
template <typename M>
MessageCategory categorize(const M&) {
  return categorize(M::kType);
}
inline MessageCategory categorize(const EventNotification& event) {
  return event.event == EventType::subframe_tick ? MessageCategory::sync
                                                 : MessageCategory::agent_management;
}

template <typename M>
net::TrafficClass traffic_class(const M&) {
  return traffic_class(M::kType);
}
inline net::TrafficClass traffic_class(const EventNotification& event) {
  return event.event == EventType::subframe_tick ? net::TrafficClass::sync
                                                 : net::TrafficClass::event;
}

/// Encodes `message` inside an envelope directly into `enc` (which the caller
/// has clear()ed): the body is written inline through begin_message/
/// end_message, so there is no per-send body vector and no copy. `header`
/// supplies every envelope field except `type` (taken from M::kType) and
/// `body` (ignored). Bytes are identical to pack()/Envelope::encode(): both
/// write the envelope's rows through its table.
template <typename M>
void encode_envelope(WireEncoder& enc, const Envelope& header, const M& message) {
  Envelope::Fields::each([&]<typename Row>() __attribute__((always_inline)) {
    // Hand-coded: the body is `message`, written in place, and the type
    // field is its kType.
    if constexpr (Row::template names<&Envelope::body>) {
      const std::size_t mark = enc.begin_message(Row::number);
      message.encode_body(enc);
      enc.end_message(mark);
    } else if constexpr (Row::template names<&Envelope::type>) {
      enc.field_varint(Row::number, static_cast<std::uint64_t>(M::kType));
    } else {
      Row::encode(enc, header);
    }
  });
}

/// Packs a message struct into an encoded envelope.
template <typename M>
std::vector<std::uint8_t> pack(const M& message, std::uint32_t xid = 0) {
  WireEncoder enc;
  Envelope envelope;
  envelope.type = M::kType;
  envelope.xid = xid;
  encode_envelope(enc, envelope, message);
  return enc.take();
}

/// Unpacks an envelope body into a message struct; the caller has already
/// matched envelope.type against M::kType.
template <typename M>
util::Result<M> unpack(const Envelope& envelope) {
  if (envelope.type != M::kType) {
    return util::Error::decode_failure("envelope type mismatch");
  }
  return M::decode_body(envelope.body);
}

}  // namespace flexran::proto
