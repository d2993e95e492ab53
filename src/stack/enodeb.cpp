#include "stack/enodeb.h"

#include <algorithm>
#include <cassert>

#include "lte/tables.h"
#include "util/logging.h"

namespace flexran::stack {

namespace {
/// Window (TTIs) of the proportional-fair rate average.
constexpr double kPfWindowTtis = 100.0;
}  // namespace

EnodebDataPlane::EnodebDataPlane(sim::Simulator& sim, lte::EnbConfig config,
                                 phy::RadioEnvironment* env, std::uint64_t seed)
    : sim_(sim), config_(std::move(config)), env_(env), error_model_(seed) {}

// ------------------------------------------------------------ UE lifecycle

lte::Rnti EnodebDataPlane::add_ue(UeProfile profile) {
  lte::Rnti rnti = profile.config.rnti;
  if (rnti == lte::kInvalidRnti) rnti = next_rnti_++;
  UeContext ue;
  ue.config = profile.config;
  ue.config.rnti = rnti;
  ue.config.primary_cell = cell_id();
  ue.dl_channel = std::move(profile.dl_channel);
  ue.radio_profile = profile.radio_profile;
  ue.mobility = std::move(profile.mobility);
  if (ue.mobility != nullptr) {
    ue.radio_profile = ue.mobility->profile_at(sim_.now(), cell_id());
  }
  ue.ul_cqi = profile.ul_cqi;
  ue.rach_at_subframe = std::max<std::int64_t>(current_subframe_ + 1, 0) + profile.attach_after_ttis;
  ues_.emplace(rnti, std::move(ue));
  return rnti;
}

util::Result<UeProfile> EnodebDataPlane::trigger_handover(lte::Rnti rnti) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return util::Error::not_found("handover: unknown rnti");
  UeProfile profile;
  profile.config = it->second.config;
  profile.config.primary_cell = 0;
  profile.dl_channel = std::move(it->second.dl_channel);
  profile.radio_profile = it->second.radio_profile;
  profile.mobility = it->second.mobility;
  profile.ul_cqi = it->second.ul_cqi;
  profile.attach_after_ttis = 1;
  const bool was_connected = it->second.connected();
  ues_.erase(it);
  pending_retx_.erase(rnti);
  std::erase_if(in_flight_, [rnti](const InFlight& f) { return f.rnti == rnti; });
  if (was_connected && listener_ != nullptr) listener_->on_ue_detached(rnti, current_subframe_);
  return profile;
}

// ----------------------------------------------------------------- TTI flow

void EnodebDataPlane::subframe_begin(std::int64_t subframe) {
  current_subframe_ = subframe;
  dl_prbs_last_tti_ = 0;
  ul_prbs_last_tti_ = 0;
  // This cell is silent until a decision allocates downlink PRBs.
  if (env_ != nullptr) env_->set_transmitting(cell_id(), false);

  process_harq_feedback(subframe);
  process_attach_fsm(subframe);
  sample_cqi(subframe);

  if (listener_ != nullptr) listener_->on_subframe_start(subframe);
}

void EnodebDataPlane::subframe_end(std::int64_t subframe) {
  // Stamp the channel actually experienced by this subframe's transmissions
  // (the full active set is known only now).
  for (auto& flight : in_flight_) {
    if (flight.tx_subframe != subframe || flight.actual_cqi >= 0 ||
        flight.direction != lte::Direction::downlink) {
      continue;
    }
    const auto it = ues_.find(flight.rnti);
    if (it == ues_.end()) {
      flight.actual_cqi = 0;
    } else if (flight.carrier == 0) {
      flight.actual_cqi = current_dl_cqi(it->second);
    } else {
      // The SCell sits on its own frequency: no inter-cell interference
      // coupling, so the clean (protected) channel applies.
      flight.actual_cqi = it->second.reported_cqi_protected;
    }
  }
  // Proportional-fair averages advance every TTI, delivered or not.
  for (auto& [rnti, ue] : ues_) {
    (void)rnti;
    const double delivered_bits = static_cast<double>(ue.dl_bytes_this_tti) * 8.0;
    ue.avg_dl_rate_bits += (delivered_bits - ue.avg_dl_rate_bits) / kPfWindowTtis;
    ue.dl_bytes_this_tti = 0;
  }
}

void EnodebDataPlane::process_attach_fsm(std::int64_t subframe) {
  for (auto& [rnti, ue] : ues_) {
    switch (ue.rrc_state) {
      case RrcState::idle:
        if (subframe >= ue.rach_at_subframe) {
          ue.rrc_state = RrcState::connecting;
          ue.attach_deadline = subframe + kAttachTimeoutTtis;
          ue.setup_bytes_delivered = 0;
          ue.dl_queue.enqueue(lte::kSrb1, kRrcSetupBytes);
          if (listener_ != nullptr) listener_->on_rach(rnti, subframe);
        }
        break;
      case RrcState::connecting:
        if (subframe > ue.attach_deadline) {
          // RRC setup timed out; restart RACH (drain stale SRB signaling).
          (void)ue.dl_queue.dequeue_lcid(lte::kSrb1, 1'000'000'000);
          ue.rrc_state = RrcState::idle;
          ue.rach_at_subframe = subframe + 1;
        }
        break;
      case RrcState::connected:
        break;
    }
  }
}

void EnodebDataPlane::process_harq_feedback(std::int64_t subframe) {
  const std::int64_t feedback_for = subframe - lte::kHarqFeedbackDelayTtis;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->tx_subframe != feedback_for) {
      ++it;
      continue;
    }
    InFlight flight = *it;
    it = in_flight_.erase(it);

    auto ue_it = ues_.find(flight.rnti);
    if (ue_it == ues_.end()) continue;  // UE left meanwhile
    UeContext& ue = ue_it->second;

    const int actual_cqi =
        flight.direction == lte::Direction::downlink ? std::max(flight.actual_cqi, 0) : ue.ul_cqi;
    const bool ok = error_model_.transport_block_ok(flight.mcs, actual_cqi, flight.retx_count);

    if (flight.direction == lte::Direction::downlink) {
      lte::HarqEntity& harq = flight.carrier == 0 ? ue.dl_harq : ue.dl_harq_scell;
      if (ok) {
        harq.ack(flight.harq_pid);
        ++ue.dl_blocks_acked;
        deliver(ue, flight.rnti, flight.app_bytes, lte::Direction::downlink, subframe);
      } else {
        ++ue.dl_blocks_nacked;
        if (harq.nack(flight.harq_pid)) {
          flight.retx_count += 1;
          flight.actual_cqi = -1;
          pending_retx_[flight.rnti].push_back(flight);
        } else {
          // HARQ gave up; RLC AM recovers by requeueing the SDU bytes.
          ue.dl_queue.enqueue(lte::kDefaultDrb, flight.app_bytes);
        }
      }
    } else {  // uplink
      if (ok) {
        deliver(ue, flight.rnti, flight.app_bytes, lte::Direction::uplink, subframe);
      } else {
        // RLC AM on the UE side retransmits: bytes return to its buffer.
        ue.ul_buffer_bytes += flight.app_bytes;
      }
    }
  }
}

void EnodebDataPlane::sample_cqi(std::int64_t /*subframe*/) {
  for (auto& [rnti, ue] : ues_) {
    (void)rnti;
    if (ue.mobility != nullptr) {
      ue.radio_profile = ue.mobility->profile_at(sim_.now(), cell_id());
    }
    ue.reported_cqi = current_dl_cqi(ue);
    if (ue.radio_profile.has_value()) {
      // Protected (ABS) measurement: no interferers active.
      ue.reported_cqi_protected = lte::sinr_db_to_cqi(ue.radio_profile->sinr_db({}));
    } else {
      ue.reported_cqi_protected = ue.reported_cqi;
    }
  }
}

int EnodebDataPlane::current_dl_cqi(const UeContext& ue) const {
  if (ue.radio_profile.has_value() && env_ != nullptr) {
    return lte::sinr_db_to_cqi(env_->sinr_db(*ue.radio_profile));
  }
  if (ue.dl_channel != nullptr) return ue.dl_channel->cqi(sim_.now());
  return lte::kMaxCqi;  // ideal channel by default
}

void EnodebDataPlane::deliver(UeContext& ue, lte::Rnti rnti, std::uint32_t bytes,
                              lte::Direction direction, std::int64_t subframe) {
  if (direction == lte::Direction::downlink) {
    ue.dl_bytes_delivered += bytes;
    ue.dl_bytes_this_tti += bytes;
    if (ue.rrc_state == RrcState::connecting) {
      // SRB signaling drains before DRB data, so attach progress is bounded
      // by total delivered bytes while connecting.
      ue.setup_bytes_delivered += bytes;
      if (ue.setup_bytes_delivered >= kRrcSetupBytes) {
        ue.rrc_state = RrcState::connected;
        if (listener_ != nullptr) listener_->on_ue_attached(rnti, subframe);
      }
    }
  } else {
    ue.ul_bytes_received += bytes;
  }
  if (on_delivery_) on_delivery_(rnti, bytes, direction);
}

// ------------------------------------------------------------- decisions

util::Status EnodebDataPlane::apply_scheduling_decision(const lte::SchedulingDecision& decision) {
  if (decision.subframe != current_subframe_) {
    ++grants_rejected_;
    return util::Error::invalid_argument("decision targets a different subframe");
  }
  auto dl_status = apply_dl(decision);
  auto ul_status = apply_ul(decision);
  if (!dl_status.ok()) return dl_status;
  return ul_status;
}

util::Status EnodebDataPlane::apply_dl(const lte::SchedulingDecision& decision) {
  if (decision.dl.empty()) return {};
  if (muted_in(current_subframe_)) {
    grants_rejected_ += decision.dl.size();
    return util::Error::conflict("cell is muted in this (almost-blank) subframe");
  }

  // Independent PRB budgets per component carrier.
  const std::array<int, 2> carrier_prbs = {effective_dl_prbs(), scell_prbs()};
  std::array<lte::RbAllocation, 2> used{};
  bool pcell_transmitted = false;

  for (const auto& dci : decision.dl) {
    auto ue_it = ues_.find(dci.rnti);
    if (ue_it == ues_.end() || ue_it->second.rrc_state == RrcState::idle ||
        ue_it->second.drx_sleeping(current_subframe_)) {
      ++grants_rejected_;
      continue;
    }
    UeContext& ue = ue_it->second;
    if (dci.carrier > 1 || (dci.carrier == 1 && !ue.scell_active)) {
      ++grants_rejected_;
      continue;
    }
    const int max_prbs = carrier_prbs[dci.carrier];
    const int n_prb = dci.rbs.count();
    if (max_prbs == 0 || n_prb == 0 || n_prb > max_prbs ||
        dci.rbs.highest_set() >= max_prbs || dci.rbs.overlaps(used[dci.carrier])) {
      ++grants_rejected_;
      continue;
    }
    lte::HarqEntity& harq = dci.carrier == 0 ? ue.dl_harq : ue.dl_harq_scell;

    // Pending HARQ retransmissions on this carrier consume the grant first.
    auto retx_it = pending_retx_.find(dci.rnti);
    if (retx_it != pending_retx_.end()) {
      auto flight_it =
          std::find_if(retx_it->second.begin(), retx_it->second.end(),
                       [&](const InFlight& f) { return f.carrier == dci.carrier; });
      if (flight_it != retx_it->second.end()) {
        InFlight flight = *flight_it;
        retx_it->second.erase(flight_it);
        if (retx_it->second.empty()) pending_retx_.erase(retx_it);
        flight.tx_subframe = current_subframe_;
        harq.start(flight.harq_pid, 0, flight.mcs, flight.n_prb, current_subframe_);
        in_flight_.push_back(flight);
        used[dci.carrier].merge(dci.rbs);
        dl_prbs_last_tti_ += static_cast<std::uint64_t>(n_prb);
        pcell_transmitted |= dci.carrier == 0;
        continue;
      }
    }

    if (ue.dl_queue.empty()) continue;  // nothing to send; grant unused
    const auto free_pid = harq.find_free_process();
    if (!free_pid.has_value()) {
      ++grants_rejected_;
      continue;
    }

    std::int64_t tbs = dci.tbs();
    tbs = std::min(tbs, lte::category_max_tbs_bits(ue.config.ue_category));
    const std::uint32_t drained = ue.dl_queue.dequeue(tbs);
    if (drained == 0) continue;

    InFlight flight;
    flight.rnti = dci.rnti;
    flight.direction = lte::Direction::downlink;
    flight.carrier = dci.carrier;
    flight.harq_pid = *free_pid;
    flight.app_bytes = drained;
    flight.mcs = dci.mcs;
    flight.n_prb = n_prb;
    flight.tx_subframe = current_subframe_;
    harq.start(*free_pid, static_cast<std::int64_t>(drained) * 8, dci.mcs, flight.n_prb,
               current_subframe_);
    in_flight_.push_back(flight);
    used[dci.carrier].merge(dci.rbs);
    dl_prbs_last_tti_ += static_cast<std::uint64_t>(n_prb);
    pcell_transmitted |= dci.carrier == 0;
  }

  // The SCell lives on its own frequency; only PCell activity interferes.
  if (pcell_transmitted && env_ != nullptr) env_->set_transmitting(cell_id(), true);
  return {};
}

util::Status EnodebDataPlane::set_scell_active(lte::Rnti rnti, bool active) {
  if (!config_.scell.has_value()) {
    return util::Error::unsupported("eNodeB has no secondary carrier configured");
  }
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return util::Error::not_found("set_scell_active: unknown rnti");
  if (active && !it->second.config.carrier_aggregation) {
    return util::Error::invalid_argument("UE is not CA-capable");
  }
  it->second.scell_active = active;
  return {};
}

util::Status EnodebDataPlane::apply_ul(const lte::SchedulingDecision& decision) {
  if (decision.ul.empty()) return {};
  const int max_prbs = config_.cells[0].ul_prbs();
  lte::RbAllocation used;

  for (const auto& dci : decision.ul) {
    auto ue_it = ues_.find(dci.rnti);
    if (ue_it == ues_.end() || !ue_it->second.connected()) {
      ++grants_rejected_;
      continue;
    }
    const int n_prb = dci.rbs.count();
    if (n_prb == 0 || n_prb > max_prbs || dci.rbs.overlaps(used)) {
      ++grants_rejected_;
      continue;
    }
    UeContext& ue = ue_it->second;
    if (ue.ul_buffer_bytes == 0) continue;

    const std::int64_t tbs = dci.tbs();
    const auto budget = static_cast<std::uint32_t>(static_cast<double>(tbs) /
                                                   (8.0 * kL2OverheadFactor));
    const std::uint32_t take = std::min(ue.ul_buffer_bytes, budget);
    if (take == 0) continue;
    ue.ul_buffer_bytes -= take;
    ue.ul_sr_pending = false;

    InFlight flight;
    flight.rnti = dci.rnti;
    flight.direction = lte::Direction::uplink;
    flight.app_bytes = take;
    flight.mcs = dci.mcs;
    flight.n_prb = n_prb;
    flight.tx_subframe = current_subframe_;
    flight.actual_cqi = ue.ul_cqi;
    in_flight_.push_back(flight);
    used.merge(dci.rbs);
    ul_prbs_last_tti_ += static_cast<std::uint64_t>(n_prb);
  }
  return {};
}

void EnodebDataPlane::configure_abs(lte::AbsPattern pattern, bool mute_during_abs) {
  abs_pattern_ = pattern;
  abs_mute_ = mute_during_abs;
}

util::Status EnodebDataPlane::configure_drx(lte::Rnti rnti, std::uint16_t cycle_ttis,
                                            std::uint16_t on_duration_ttis) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return util::Error::not_found("configure_drx: unknown rnti");
  if (cycle_ttis > 0 && on_duration_ttis == 0) {
    return util::Error::invalid_argument("DRX on-duration must be > 0");
  }
  it->second.drx_cycle_ttis = cycle_ttis;
  it->second.drx_on_duration_ttis = on_duration_ttis;
  return {};
}

// --------------------------------------------------------------- Read API

std::vector<lte::Rnti> EnodebDataPlane::ue_rntis() const {
  std::vector<lte::Rnti> out;
  out.reserve(ues_.size());
  for (const auto& [rnti, ue] : ues_) {
    (void)ue;
    out.push_back(rnti);
  }
  return out;
}

const UeContext* EnodebDataPlane::ue(lte::Rnti rnti) const {
  auto it = ues_.find(rnti);
  return it == ues_.end() ? nullptr : &it->second;
}

std::vector<SchedUeInfo> EnodebDataPlane::scheduler_view() const {
  std::vector<SchedUeInfo> out;
  scheduler_view(out);
  return out;
}

void EnodebDataPlane::scheduler_view(std::vector<SchedUeInfo>& out) const {
  out.clear();
  out.reserve(ues_.size());
  for (const auto& [rnti, ue] : ues_) {
    SchedUeInfo info;
    info.rnti = rnti;
    info.connected = ue.connected();
    info.dl_queue_bytes = ue.dl_queue.total_bytes();
    info.dl_bits_needed = ue.dl_queue.bits_needed();
    info.cqi = ue.reported_cqi;
    info.cqi_protected = ue.reported_cqi_protected;
    auto retx_it = pending_retx_.find(rnti);
    info.pending_dl_retx = retx_it == pending_retx_.end()
                               ? 0
                               : static_cast<int>(retx_it->second.size());
    info.ul_buffer_bytes = ue.ul_buffer_bytes;
    info.ul_cqi = ue.ul_cqi;
    info.avg_dl_rate_bits = ue.avg_dl_rate_bits;
    info.scell_active = ue.scell_active;
    // Sleeping UEs are not schedulable this subframe.
    if (ue.rrc_state != RrcState::idle && !ue.drx_sleeping(current_subframe_)) {
      out.push_back(info);
    }
  }
}

void EnodebDataPlane::ue_stats(lte::Rnti rnti, proto::UeStatsReport& report) const {
  report.reset();
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return;
  const UeContext& ue = it->second;
  report.rnti = rnti;
  for (int lcg = 0; lcg < lte::kNumLcGroups; ++lcg) {
    report.bsr_bytes[static_cast<std::size_t>(lcg)] = ue.dl_queue.bytes_for_lc_group(lcg);
  }
  report.wb_cqi = static_cast<std::uint8_t>(ue.reported_cqi);
  report.wb_cqi_protected = static_cast<std::uint8_t>(ue.reported_cqi_protected);
  report.rlc_queue_bytes = ue.dl_queue.total_bytes();
  auto retx_it = pending_retx_.find(rnti);
  report.pending_harq =
      retx_it == pending_retx_.end() ? 0 : static_cast<std::uint32_t>(retx_it->second.size());
  report.dl_bytes_delivered = ue.dl_bytes_delivered;
  report.ul_bytes_received = ue.ul_bytes_received;
  report.ul_buffer_bytes = ue.ul_buffer_bytes;
  if (ue.radio_profile.has_value()) {
    for (const auto& [cell, power_dbm] : ue.radio_profile->rx_power_dbm) {
      report.rsrp.push_back({cell, power_dbm});
    }
  }
}

proto::CellStatsReport EnodebDataPlane::cell_stats() const {
  proto::CellStatsReport report;
  report.cell_id = cell_id();
  report.noise_interference_dbm = phy::kNoiseFloorDbm;
  report.dl_prbs_in_use = static_cast<std::uint32_t>(dl_prbs_last_tti_);
  report.ul_prbs_in_use = static_cast<std::uint32_t>(ul_prbs_last_tti_);
  std::uint32_t connected = 0;
  for (const auto& [rnti, ue] : ues_) {
    (void)rnti;
    if (ue.connected()) ++connected;
  }
  report.active_ues = connected;
  return report;
}

// ----------------------------------------------------------------- traffic

void EnodebDataPlane::enqueue_dl(lte::Rnti rnti, lte::Lcid lcid, std::uint32_t bytes) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return;
  it->second.dl_queue.enqueue(lcid, bytes);
}

void EnodebDataPlane::enqueue_ul(lte::Rnti rnti, std::uint32_t bytes) {
  auto it = ues_.find(rnti);
  if (it == ues_.end()) return;
  UeContext& ue = it->second;
  const bool was_empty = ue.ul_buffer_bytes == 0;
  ue.ul_buffer_bytes += bytes;
  if (was_empty && !ue.ul_sr_pending && ue.connected()) {
    ue.ul_sr_pending = true;
    if (listener_ != nullptr) listener_->on_scheduling_request(rnti, current_subframe_);
  }
}

}  // namespace flexran::stack
