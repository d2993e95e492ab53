// The eNodeB data plane: the *action* half of the split the paper makes.
// It applies scheduling decisions, performs attach/handover signaling,
// moves bytes, runs HARQ, and raises events -- but contains no control
// logic. All decisions enter through apply_scheduling_decision /
// configure_abs / trigger_handover, i.e. through the FlexRAN Agent API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "lte/abs.h"
#include "lte/allocation.h"
#include "lte/types.h"
#include "phy/error_model.h"
#include "phy/radio_env.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "stack/ue_context.h"

namespace flexran::stack {

/// Everything a MAC scheduler needs to know about one UE for one TTI.
/// Snapshotted by the data plane; VSFs and the master make decisions from
/// this (directly or via stats reports).
struct SchedUeInfo {
  lte::Rnti rnti = lte::kInvalidRnti;
  bool connected = false;
  std::uint32_t dl_queue_bytes = 0;
  std::int64_t dl_bits_needed = 0;
  int cqi = 0;
  int cqi_protected = 0;
  int pending_dl_retx = 0;
  std::uint32_t ul_buffer_bytes = 0;
  int ul_cqi = 0;
  /// Long-run average delivered rate (bits/TTI), for PF metric computation.
  double avg_dl_rate_bits = 0.0;
  /// Carrier aggregation: the UE's secondary carrier is active.
  bool scell_active = false;
};

class EnodebDataPlane {
 public:
  /// Data-plane events; the FlexRAN agent implements this to turn them into
  /// protocol notifications (Table 1 "Event-triggers") and to run
  /// scheduling VSFs at subframe start.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_subframe_start(std::int64_t subframe) { (void)subframe; }
    virtual void on_rach(lte::Rnti rnti, std::int64_t subframe) { (void)rnti, (void)subframe; }
    virtual void on_ue_attached(lte::Rnti rnti, std::int64_t subframe) {
      (void)rnti, (void)subframe;
    }
    virtual void on_ue_detached(lte::Rnti rnti, std::int64_t subframe) {
      (void)rnti, (void)subframe;
    }
    virtual void on_scheduling_request(lte::Rnti rnti, std::int64_t subframe) {
      (void)rnti, (void)subframe;
    }
  };

  using DeliveryFn =
      std::function<void(lte::Rnti, std::uint32_t bytes, lte::Direction direction)>;

  EnodebDataPlane(sim::Simulator& sim, lte::EnbConfig config,
                  phy::RadioEnvironment* env = nullptr, std::uint64_t seed = 1);

  void set_listener(Listener* listener) { listener_ = listener; }
  void set_delivery_callback(DeliveryFn fn) { on_delivery_ = std::move(fn); }

  // ---- TTI driving (wired to the TtiTicker by the scenario) --------------
  void subframe_begin(std::int64_t subframe);
  void subframe_end(std::int64_t subframe);

  // ---- UE management ------------------------------------------------------
  /// Adds a UE; it will RACH after profile.attach_after_ttis. Returns the
  /// assigned RNTI.
  lte::Rnti add_ue(UeProfile profile);

  // ---- Action API (called via the FlexRAN Agent API) ----------------------
  /// Applies a decision for the *current* subframe. Grants targeting other
  /// subframes are rejected (the agent owns schedule-ahead buffering).
  util::Status apply_scheduling_decision(const lte::SchedulingDecision& decision);
  void configure_abs(lte::AbsPattern pattern, bool mute_during_abs);
  /// (De)activates a UE's secondary component carrier (Table 1 CA
  /// commands). Requires an SCell in the eNodeB config and a CA-capable UE.
  util::Status set_scell_active(lte::Rnti rnti, bool active);
  /// PRBs of the secondary carrier; 0 when no SCell is configured.
  int scell_prbs() const { return config_.scell.has_value() ? config_.scell->dl_prbs() : 0; }
  /// Configures DRX for a UE (Table 1 "DRX commands"); while the UE sleeps
  /// it is hidden from scheduler views and grants to it are rejected.
  util::Status configure_drx(lte::Rnti rnti, std::uint16_t cycle_ttis,
                             std::uint16_t on_duration_ttis);
  /// Restricts downlink to the first `max_dl_prbs` PRBs (0 = unrestricted);
  /// the LSA spectrum-sharing action (upper PRBs evacuated for an
  /// incumbent). Grants touching evacuated PRBs are rejected.
  void restrict_dl_prbs(int max_dl_prbs) { dl_prb_cap_ = max_dl_prbs; }
  /// Usable downlink PRBs after any carrier restriction.
  int effective_dl_prbs() const {
    const int configured = config_.cells[0].dl_prbs();
    return dl_prb_cap_ > 0 ? std::min(dl_prb_cap_, configured) : configured;
  }
  /// RRC action part of a handover: detaches the UE here and reports its
  /// context so the scenario/agent can re-attach it at the target cell.
  util::Result<UeProfile> trigger_handover(lte::Rnti rnti);

  // ---- Read API ------------------------------------------------------------
  const lte::EnbConfig& config() const { return config_; }
  lte::CellId cell_id() const { return config_.cells[0].cell_id; }
  std::int64_t current_subframe() const { return current_subframe_; }
  bool is_abs(std::int64_t subframe) const { return abs_pattern_.is_abs(subframe); }
  bool muted_in(std::int64_t subframe) const {
    return abs_mute_ && abs_pattern_.is_abs(subframe);
  }

  std::vector<lte::Rnti> ue_rntis() const;
  const UeContext* ue(lte::Rnti rnti) const;
  const std::map<lte::Rnti, UeContext>& ues() const { return ues_; }
  std::size_t ue_count() const { return ues_.size(); }

  /// Scheduler-facing snapshot of all UEs (the Agent API "statistics" read).
  std::vector<SchedUeInfo> scheduler_view() const;
  /// The same snapshot written over `out`, reusing its capacity.
  void scheduler_view(std::vector<SchedUeInfo>& out) const;
  /// One UE's report written over `out`, reusing its RSRP list's capacity.
  void ue_stats(lte::Rnti rnti, proto::UeStatsReport& out) const;
  proto::CellStatsReport cell_stats() const;

  // ---- Traffic plumbing (EPC / UE applications) ---------------------------
  void enqueue_dl(lte::Rnti rnti, lte::Lcid lcid, std::uint32_t bytes);
  void enqueue_ul(lte::Rnti rnti, std::uint32_t bytes);

  // ---- Introspection / counters -------------------------------------------
  std::uint64_t grants_rejected() const { return grants_rejected_; }
  std::uint64_t dl_prbs_used_last_tti() const { return dl_prbs_last_tti_; }

 private:
  struct InFlight {
    lte::Rnti rnti = lte::kInvalidRnti;
    lte::Direction direction = lte::Direction::downlink;
    std::uint8_t carrier = 0;
    std::uint8_t harq_pid = 0;
    std::uint32_t app_bytes = 0;
    int mcs = 0;
    int n_prb = 0;
    std::int64_t tx_subframe = 0;
    int retx_count = 0;
    int actual_cqi = -1;  // stamped at subframe_end of the tx subframe
  };

  void process_attach_fsm(std::int64_t subframe);
  void process_harq_feedback(std::int64_t subframe);
  void sample_cqi(std::int64_t subframe);
  void deliver(UeContext& ue, lte::Rnti rnti, std::uint32_t bytes, lte::Direction direction,
               std::int64_t subframe);
  int current_dl_cqi(const UeContext& ue) const;
  util::Status apply_dl(const lte::SchedulingDecision& decision);
  util::Status apply_ul(const lte::SchedulingDecision& decision);

  sim::Simulator& sim_;
  lte::EnbConfig config_;
  phy::RadioEnvironment* env_;  // nullable; not owned
  phy::ErrorModel error_model_;
  Listener* listener_ = nullptr;
  DeliveryFn on_delivery_;

  std::map<lte::Rnti, UeContext> ues_;
  std::map<lte::Rnti, std::vector<InFlight>> pending_retx_;
  std::vector<InFlight> in_flight_;

  lte::AbsPattern abs_pattern_;
  bool abs_mute_ = false;
  int dl_prb_cap_ = 0;

  lte::Rnti next_rnti_ = 70;  // OAI-style first C-RNTI
  std::int64_t current_subframe_ = -1;
  std::uint64_t grants_rejected_ = 0;
  std::uint64_t dl_prbs_last_tti_ = 0;
  std::uint64_t ul_prbs_last_tti_ = 0;
};

}  // namespace flexran::stack
