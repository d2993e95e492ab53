#include "agent/schedulers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lte/tables.h"

namespace flexran::agent {

int prbs_needed(std::int64_t bits, int mcs) {
  if (bits <= 0) return 0;
  const double per_prb = static_cast<double>(lte::tbs_bits(mcs, 1));
  if (per_prb <= 0.0) return 1;
  return std::max(1, static_cast<int>(std::ceil(static_cast<double>(bits) / per_prb)));
}

namespace {

/// Shared packing core: assigns contiguous chunks in demand order.
template <typename Dci>
std::vector<Dci> pack_allocations(const std::vector<PrbDemand>& demands, int total_prbs,
                                  int first_prb) {
  std::vector<Dci> out;
  int next_prb = first_prb;
  const int end_prb = first_prb + total_prbs;
  for (const auto& demand : demands) {
    if (next_prb >= end_prb) break;
    const int take = std::min(demand.prbs_wanted, end_prb - next_prb);
    if (take <= 0 || demand.mcs < 0) continue;
    Dci dci;
    dci.rnti = demand.rnti;
    dci.rbs.set_range(next_prb, take);
    dci.mcs = demand.mcs;
    out.push_back(dci);
    next_prb += take;
  }
  return out;
}

int effective_cqi(const stack::SchedUeInfo& info, bool protected_subframe) {
  return std::max(protected_subframe ? info.cqi_protected : info.cqi, 1);
}

}  // namespace

/// Equal-share demands with leftover redistribution: every active UE gets
/// floor(total/n) PRBs capped by need; remaining PRBs go to UEs that still
/// want more, in order.
std::vector<PrbDemand> equal_share_demands(std::vector<PrbDemand> wants, int total_prbs) {
  if (wants.empty()) return wants;
  const int n = static_cast<int>(wants.size());
  const int share = std::max(1, total_prbs / n);
  int leftover = total_prbs;
  std::vector<int> granted(wants.size(), 0);
  for (std::size_t i = 0; i < wants.size() && leftover > 0; ++i) {
    granted[i] = std::min({wants[i].prbs_wanted, share, leftover});
    leftover -= granted[i];
  }
  for (std::size_t i = 0; i < wants.size() && leftover > 0; ++i) {
    const int extra = std::min(wants[i].prbs_wanted - granted[i], leftover);
    if (extra > 0) {
      granted[i] += extra;
      leftover -= extra;
    }
  }
  for (std::size_t i = 0; i < wants.size(); ++i) wants[i].prbs_wanted = granted[i];
  std::erase_if(wants, [](const PrbDemand& d) { return d.prbs_wanted <= 0; });
  return wants;
}

std::vector<lte::DlDci> pack_dl_allocations(const std::vector<PrbDemand>& demands,
                                            int total_prbs, int first_prb) {
  return pack_allocations<lte::DlDci>(demands, total_prbs, first_prb);
}

std::vector<lte::UlDci> pack_ul_allocations(const std::vector<PrbDemand>& demands,
                                            int total_prbs, int first_prb) {
  return pack_allocations<lte::UlDci>(demands, total_prbs, first_prb);
}

// -------------------------------------------------------------- RR (DL) --

lte::SchedulingDecision RoundRobinDlVsf::schedule_dl(AgentApi& api, std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  if (api.muted_in(subframe)) return decision;

  const bool protected_sf = api.is_abs(subframe);
  api.scheduler_view(view_);
  std::vector<PrbDemand> wants;
  for (const auto& info : view_) {
    if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
    const int cqi = effective_cqi(info, protected_sf);
    const int mcs = lte::cqi_to_mcs(cqi);
    PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted = info.pending_dl_retx > 0 ? api.dl_prbs()
                                                  : prbs_needed(info.dl_bits_needed, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;

  // Rotate who is first so leftovers circulate fairly.
  std::rotate(wants.begin(), wants.begin() + static_cast<std::ptrdiff_t>(rotation_ % wants.size()),
              wants.end());
  ++rotation_;

  decision.dl = pack_dl_allocations(equal_share_demands(std::move(wants), api.dl_prbs()), api.dl_prbs());
  return decision;
}

// -------------------------------------------------------------- PF (DL) --

lte::SchedulingDecision ProportionalFairDlVsf::schedule_dl(AgentApi& api,
                                                           std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  if (api.muted_in(subframe)) return decision;

  const bool protected_sf = api.is_abs(subframe);
  auto view = api.scheduler_view();
  struct Ranked {
    double metric;
    PrbDemand demand;
  };
  std::vector<Ranked> ranked;
  for (const auto& info : view) {
    if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
    const int cqi = effective_cqi(info, protected_sf);
    const int mcs = lte::cqi_to_mcs(cqi);
    const double inst_rate = static_cast<double>(lte::tbs_bits(mcs, api.dl_prbs()));
    const double avg = std::max(info.avg_dl_rate_bits, 1.0);
    PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted = info.pending_dl_retx > 0 ? api.dl_prbs()
                                                  : prbs_needed(info.dl_bits_needed, mcs);
    ranked.push_back({inst_rate / avg, demand});
  }
  if (ranked.empty()) return decision;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) { return a.metric > b.metric; });

  std::vector<PrbDemand> wants;
  const auto cap = static_cast<std::size_t>(std::max(1, max_ues_per_tti_));
  for (std::size_t i = 0; i < ranked.size() && i < cap; ++i) wants.push_back(ranked[i].demand);
  decision.dl = pack_dl_allocations(equal_share_demands(std::move(wants), api.dl_prbs()), api.dl_prbs());
  return decision;
}

util::Status ProportionalFairDlVsf::set_parameter(std::string_view key,
                                                  const util::YamlNode& value) {
  auto valid = validate_parameter(key, value);
  if (!valid.ok()) return valid;
  max_ues_per_tti_ = static_cast<int>(*value.as_int());
  return {};
}

util::Status ProportionalFairDlVsf::validate_parameter(std::string_view key,
                                                       const util::YamlNode& value) const {
  if (key == "max_ues_per_tti") {
    auto v = value.as_int();
    if (!v.ok() || *v < 1) return util::Error::invalid_argument("max_ues_per_tti must be >= 1");
    return {};
  }
  return util::Error::invalid_argument("unknown parameter: " + std::string(key));
}

// -------------------------------------------------------------- CA RR ----

lte::SchedulingDecision CaRoundRobinDlVsf::schedule_dl(AgentApi& api, std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  if (api.muted_in(subframe)) return decision;

  const bool protected_sf = api.is_abs(subframe);
  const auto view = api.scheduler_view();

  // PCell: plain round robin over everyone with data.
  std::vector<PrbDemand> pcell_wants;
  std::vector<PrbDemand> scell_wants;
  for (const auto& info : view) {
    if (info.dl_queue_bytes == 0 && info.pending_dl_retx == 0) continue;
    const int cqi = effective_cqi(info, protected_sf);
    const int mcs = lte::cqi_to_mcs(cqi);
    PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    demand.prbs_wanted = info.pending_dl_retx > 0 ? api.dl_prbs()
                                                  : prbs_needed(info.dl_bits_needed, mcs);
    pcell_wants.push_back(demand);

    if (info.scell_active && api.scell_prbs() > 0) {
      // The SCell carries the clean-carrier channel.
      PrbDemand scell_demand;
      scell_demand.rnti = info.rnti;
      scell_demand.mcs = lte::cqi_to_mcs(std::max(info.cqi_protected, 1));
      scell_demand.prbs_wanted = info.pending_dl_retx > 0
                                     ? api.scell_prbs()
                                     : prbs_needed(info.dl_bits_needed, scell_demand.mcs);
      scell_wants.push_back(scell_demand);
    }
  }
  if (pcell_wants.empty()) return decision;

  std::rotate(pcell_wants.begin(),
              pcell_wants.begin() + static_cast<std::ptrdiff_t>(rotation_ % pcell_wants.size()),
              pcell_wants.end());
  ++rotation_;
  decision.dl = pack_dl_allocations(equal_share_demands(std::move(pcell_wants), api.dl_prbs()),
                                    api.dl_prbs());

  if (!scell_wants.empty()) {
    std::rotate(scell_wants.begin(),
                scell_wants.begin() +
                    static_cast<std::ptrdiff_t>(scell_rotation_ % scell_wants.size()),
                scell_wants.end());
    ++scell_rotation_;
    auto scell_dcis = pack_dl_allocations(
        equal_share_demands(std::move(scell_wants), api.scell_prbs()), api.scell_prbs());
    for (auto& dci : scell_dcis) dci.carrier = 1;
    decision.dl.insert(decision.dl.end(), scell_dcis.begin(), scell_dcis.end());
  }
  return decision;
}

// ---------------------------------------------------------- remote stub --

lte::SchedulingDecision RemoteStubDlVsf::schedule_dl(AgentApi& api, std::int64_t subframe) {
  lte::SchedulingDecision empty;
  empty.cell_id = api.cell_id();
  empty.subframe = subframe;
  return empty;
}

// -------------------------------------------------------------- RR (UL) --

lte::SchedulingDecision RoundRobinUlVsf::schedule_ul(AgentApi& api, std::int64_t subframe) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;

  api.scheduler_view(view_);
  std::vector<PrbDemand> wants;
  for (const auto& info : view_) {
    if (!info.connected || info.ul_buffer_bytes == 0) continue;
    const int mcs = lte::cqi_to_mcs(std::max(info.ul_cqi, 1));
    PrbDemand demand;
    demand.rnti = info.rnti;
    demand.mcs = mcs;
    const auto bits = static_cast<std::int64_t>(info.ul_buffer_bytes) * 8 * 11 / 10;
    demand.prbs_wanted = prbs_needed(bits, mcs);
    wants.push_back(demand);
  }
  if (wants.empty()) return decision;
  std::rotate(wants.begin(), wants.begin() + static_cast<std::ptrdiff_t>(rotation_ % wants.size()),
              wants.end());
  ++rotation_;
  decision.ul = pack_ul_allocations(equal_share_demands(std::move(wants), api.ul_prbs()), api.ul_prbs());
  return decision;
}

lte::SchedulingDecision RemoteStubUlVsf::schedule_ul(AgentApi& api, std::int64_t subframe) {
  lte::SchedulingDecision empty;
  empty.cell_id = api.cell_id();
  empty.subframe = subframe;
  return empty;
}

// -------------------------------------------------------------------- A3 --

std::optional<HandoverDecision> A3HandoverVsf::evaluate(AgentApi& api, std::int64_t /*subframe*/) {
  for (const auto& [rnti, ue] : api.ues()) {
    if (!ue.connected() || !ue.radio_profile.has_value()) continue;
    const auto& profile = *ue.radio_profile;
    const auto serving_it = profile.rx_power_dbm.find(profile.serving_cell);
    if (serving_it == profile.rx_power_dbm.end()) continue;

    lte::CellId best_cell = 0;
    double best_power = serving_it->second + hysteresis_db_;
    for (const auto& [cell, power] : profile.rx_power_dbm) {
      if (cell == profile.serving_cell) continue;
      if (power > best_power) {
        best_power = power;
        best_cell = cell;
      }
    }
    if (best_cell != 0) {
      if (++streak_[rnti] >= time_to_trigger_ttis_) {
        streak_.erase(rnti);
        return HandoverDecision{rnti, best_cell};
      }
    } else {
      streak_.erase(rnti);
    }
  }
  return std::nullopt;
}

util::Status A3HandoverVsf::set_parameter(std::string_view key, const util::YamlNode& value) {
  auto valid = validate_parameter(key, value);
  if (!valid.ok()) return valid;
  if (key == "hysteresis_db") {
    hysteresis_db_ = *value.as_double();
  } else {
    time_to_trigger_ttis_ = static_cast<int>(*value.as_int());
  }
  return {};
}

util::Status A3HandoverVsf::validate_parameter(std::string_view key,
                                               const util::YamlNode& value) const {
  if (key == "hysteresis_db") {
    auto v = value.as_double();
    if (!v.ok()) return v.error();
    return {};
  }
  if (key == "time_to_trigger_ttis") {
    auto v = value.as_int();
    if (!v.ok() || *v < 0) return util::Error::invalid_argument("time_to_trigger_ttis >= 0");
    return {};
  }
  return util::Error::invalid_argument("unknown parameter: " + std::string(key));
}

// ------------------------------------------------------------- faulty ----

namespace {

/// Misbehaving delegated code for chaos testing and the faulty-VSF bench
/// sweep. Crash throws out of schedule_dl; overrun declares 5x the 1 ms
/// TTI budget; invalid emits full-band overlapping grants to an unknown
/// RNTI at an out-of-range MCS, tripping every validation rule regardless
/// of the cell bandwidth.
class FaultyDlVsf final : public DlSchedulerVsf {
 public:
  enum class Mode { crash, overrun, invalid };
  explicit FaultyDlVsf(Mode mode) : mode_(mode) {}

  lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) override {
    if (mode_ == Mode::crash) throw std::runtime_error("injected VSF crash");
    lte::SchedulingDecision decision;
    decision.cell_id = api.cell_id();
    decision.subframe = subframe;
    if (mode_ == Mode::invalid) {
      lte::DlDci bogus;
      bogus.rnti = 0xFFF0;  // never assigned by the RACH path
      bogus.rbs.set_range(0, api.dl_prbs());
      bogus.mcs = lte::kMaxMcs + 3;
      decision.dl.push_back(bogus);
      decision.dl.push_back(bogus);  // overlapping with the first
    }
    return decision;
  }

  std::int64_t declared_cost_us() const override {
    return mode_ == Mode::overrun ? 5000 : 0;  // 5x the 1 ms TTI
  }

 private:
  Mode mode_;
};

}  // namespace

void register_faulty_vsfs() {
  static const bool registered = [] {
    auto& factory = VsfFactory::instance();
    factory.register_implementation("mac", "dl_ue_scheduler", "faulty_crash", [] {
      return std::make_unique<FaultyDlVsf>(FaultyDlVsf::Mode::crash);
    });
    factory.register_implementation("mac", "dl_ue_scheduler", "faulty_overrun", [] {
      return std::make_unique<FaultyDlVsf>(FaultyDlVsf::Mode::overrun);
    });
    factory.register_implementation("mac", "dl_ue_scheduler", "faulty_invalid", [] {
      return std::make_unique<FaultyDlVsf>(FaultyDlVsf::Mode::invalid);
    });
    return true;
  }();
  (void)registered;
}

// ------------------------------------------------------------ registry ----

void register_builtin_vsfs() {
  static const bool registered = [] {
    auto& factory = VsfFactory::instance();
    factory.register_implementation("mac", "dl_ue_scheduler", "local_rr",
                                    [] { return std::make_unique<RoundRobinDlVsf>(); });
    factory.register_implementation("mac", "dl_ue_scheduler", "local_pf",
                                    [] { return std::make_unique<ProportionalFairDlVsf>(); });
    factory.register_implementation("mac", "dl_ue_scheduler", "local_ca_rr",
                                    [] { return std::make_unique<CaRoundRobinDlVsf>(); });
    factory.register_implementation("mac", "ul_ue_scheduler", "local_rr",
                                    [] { return std::make_unique<RoundRobinUlVsf>(); });
    factory.register_implementation("mac", "dl_ue_scheduler", "remote",
                                    [] { return std::make_unique<RemoteStubDlVsf>(); });
    factory.register_implementation("mac", "ul_ue_scheduler", "remote",
                                    [] { return std::make_unique<RemoteStubUlVsf>(); });
    factory.register_implementation("rrc", "handover_policy", "a3",
                                    [] { return std::make_unique<A3HandoverVsf>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace flexran::agent
