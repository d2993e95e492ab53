// Per-UE state held by the eNodeB data plane. This models both the
// eNodeB-side context (RLC queues, HARQ, RRC state) and the quantities the
// real system learns from the UE over the air (CQI reports, buffer status),
// which a system-level simulation can co-locate (see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "lte/harq.h"
#include "lte/types.h"
#include "phy/channel.h"
#include "phy/mobility.h"
#include "phy/radio_env.h"
#include "stack/rlc.h"

namespace flexran::stack {

/// RRC connection state machine (simplified 36.331).
enum class RrcState : std::uint8_t {
  idle = 0,        // added but RACH not yet performed
  connecting = 1,  // RACH done, RRC setup signaling in flight on SRB1
  connected = 2,
};

/// Bytes of RRC signaling that must be delivered on SRB1 for the attach
/// handshake to complete (connection setup + reconfiguration).
constexpr std::uint32_t kRrcSetupBytes = 400;

/// TTIs a UE waits in `connecting` before restarting RACH.
constexpr std::int64_t kAttachTimeoutTtis = 2000;

/// How a UE's radio is described when it is added to an eNodeB.
struct UeProfile {
  lte::UeConfig config;
  /// Downlink channel model (exclusive with radio_profile).
  std::unique_ptr<phy::ChannelModel> dl_channel;
  /// Interference-mode description (exclusive with dl_channel); the eNodeB's
  /// RadioEnvironment computes SINR from it.
  std::optional<phy::UeRadioProfile> radio_profile;
  /// Mobility: when set, radio_profile is re-derived from the track every
  /// TTI (shared so the track survives handover to another eNodeB).
  std::shared_ptr<const phy::MobilityTrack> mobility;
  /// Uplink capability cap (UE power limits); CQI the UL scheduler sees.
  int ul_cqi = 8;
  /// TTIs after add_ue before the UE performs RACH.
  std::int64_t attach_after_ttis = 1;
};

struct UeContext {
  lte::UeConfig config;
  RrcState rrc_state = RrcState::idle;

  std::unique_ptr<phy::ChannelModel> dl_channel;
  std::optional<phy::UeRadioProfile> radio_profile;
  std::shared_ptr<const phy::MobilityTrack> mobility;
  int ul_cqi = 8;

  RlcQueue dl_queue;
  std::uint32_t ul_buffer_bytes = 0;
  bool ul_sr_pending = false;  // scheduling request to surface as an event

  /// DRX (36.321 simplified): awake for the first on_duration TTIs of each
  /// cycle; cycle 0 = DRX off.
  std::uint16_t drx_cycle_ttis = 0;
  std::uint16_t drx_on_duration_ttis = 0;
  bool drx_sleeping(std::int64_t subframe) const {
    return drx_cycle_ttis > 0 && (subframe % drx_cycle_ttis) >= drx_on_duration_ttis;
  }

  lte::HarqEntity dl_harq;
  /// Carrier aggregation: separate HARQ processes on the secondary carrier
  /// (per-carrier HARQ entities, 36.321).
  lte::HarqEntity dl_harq_scell;
  bool scell_active = false;

  // Attach bookkeeping.
  std::int64_t rach_at_subframe = 0;
  std::int64_t attach_deadline = 0;
  std::uint32_t setup_bytes_delivered = 0;

  // Latest sampled CQIs (what the UE would report).
  int reported_cqi = 0;
  /// CQI measured on protected (ABS) resources -- used by eICIC-aware
  /// schedulers (36.331 restricted measurements).
  int reported_cqi_protected = 0;

  /// Proportional-fair average delivered DL rate, bits per TTI (EWMA).
  double avg_dl_rate_bits = 0.0;
  /// DL bytes credited during the current TTI (feeds the PF average).
  std::uint32_t dl_bytes_this_tti = 0;

  // Lifetime counters.
  std::uint64_t dl_bytes_delivered = 0;
  std::uint64_t ul_bytes_received = 0;
  std::uint64_t dl_blocks_nacked = 0;
  std::uint64_t dl_blocks_acked = 0;

  bool connected() const { return rrc_state == RrcState::connected; }
};

}  // namespace flexran::stack
