#include "agent/vsf_guard.h"

#include <chrono>

namespace flexran::agent {

namespace {

std::int64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               start)
      .count();
}

}  // namespace

template <typename Body>
VsfGuard::InvokeOutcome VsfGuard::invoke_checked(const Vsf& vsf, Body&& body) {
  const std::int64_t declared = vsf.declared_cost_us();
  if (declared > kVsfBudgetUs) {
    return {proto::VsfFailureKind::overrun,
            "declared cost " + std::to_string(declared) + "us exceeds TTI budget " +
                std::to_string(kVsfBudgetUs) + "us"};
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    body();
  } catch (const std::exception& e) {
    return {proto::VsfFailureKind::exception, e.what()};
  } catch (...) {
    return {proto::VsfFailureKind::exception, "non-standard exception"};
  }
  if (const std::int64_t wall = elapsed_us(start); wall > kVsfWallClockCapUs) {
    return {proto::VsfFailureKind::overrun,
            "wall clock " + std::to_string(wall) + "us exceeds cap " +
                std::to_string(kVsfWallClockCapUs) + "us"};
  }
  return {};
}

util::Status VsfGuard::validate_decision(const lte::SchedulingDecision& decision,
                                         const AgentApi& api) {
  if (decision.empty()) return {};  // fast path: nothing scheduled, nothing to pay
  ++validations_run_;

  lte::RbAllocation used_dl[2];
  for (const auto& dci : decision.dl) {
    if (dci.carrier > 1) {
      return util::Error::invalid_argument("DL grant on unknown carrier " +
                                           std::to_string(dci.carrier));
    }
    const int max_prbs = dci.carrier == 0 ? api.dl_prbs() : api.scell_prbs();
    if (max_prbs <= 0) {
      return util::Error::invalid_argument("DL grant on unconfigured carrier " +
                                           std::to_string(dci.carrier));
    }
    if (dci.rbs.empty()) {
      return util::Error::invalid_argument("DL grant with empty allocation for RNTI " +
                                           std::to_string(dci.rnti));
    }
    if (dci.rbs.highest_set() >= max_prbs) {
      return util::Error::invalid_argument(
          "DL grant beyond carrier edge: PRB " + std::to_string(dci.rbs.highest_set()) +
          " on a " + std::to_string(max_prbs) + "-PRB carrier");
    }
    if (dci.rbs.overlaps(used_dl[dci.carrier])) {
      return util::Error::invalid_argument("overlapping DL allocations for RNTI " +
                                           std::to_string(dci.rnti));
    }
    used_dl[dci.carrier].merge(dci.rbs);
    if (dci.mcs < 0 || dci.mcs > lte::kMaxMcs) {
      return util::Error::invalid_argument("DL MCS out of range: " + std::to_string(dci.mcs));
    }
    if (api.ue(dci.rnti) == nullptr) {
      return util::Error::invalid_argument("DL grant for unknown RNTI " +
                                           std::to_string(dci.rnti));
    }
  }

  lte::RbAllocation used_ul;
  for (const auto& dci : decision.ul) {
    const int max_prbs = api.ul_prbs();
    if (dci.rbs.empty()) {
      return util::Error::invalid_argument("UL grant with empty allocation for RNTI " +
                                           std::to_string(dci.rnti));
    }
    if (dci.rbs.highest_set() >= max_prbs) {
      return util::Error::invalid_argument(
          "UL grant beyond carrier edge: PRB " + std::to_string(dci.rbs.highest_set()) +
          " on a " + std::to_string(max_prbs) + "-PRB carrier");
    }
    if (dci.rbs.overlaps(used_ul)) {
      return util::Error::invalid_argument("overlapping UL allocations for RNTI " +
                                           std::to_string(dci.rnti));
    }
    used_ul.merge(dci.rbs);
    if (dci.mcs < 0 || dci.mcs > lte::kMaxMcs) {
      return util::Error::invalid_argument("UL MCS out of range: " + std::to_string(dci.mcs));
    }
    if (api.ue(dci.rnti) == nullptr) {
      return util::Error::invalid_argument("UL grant for unknown RNTI " +
                                           std::to_string(dci.rnti));
    }
  }
  return {};
}

void VsfGuard::note_failure(ControlModule& module, std::string_view slot, std::string_view impl,
                            std::string_view fallback_impl, const InvokeOutcome& outcome,
                            std::int64_t subframe) {
  ++vsf_failures_;
  VsfFailureRecord record;
  record.module = module.name();
  record.slot = std::string(slot);
  record.implementation = std::string(impl);
  record.kind = outcome.kind;
  record.subframe = subframe;
  record.detail = outcome.detail;
  record.consecutive_failures = cache_->record_failure(module.name(), slot, impl);

  if (record.consecutive_failures >= kVsfQuarantineThreshold &&
      !cache_->is_quarantined(module.name(), slot, impl)) {
    cache_->quarantine(module.name(), slot, impl);
    ++quarantines_;
    record.quarantined = true;
    // Relink the slot so the fallback becomes the active implementation
    // (the quarantined one can no longer be selected). If the fallback is
    // itself unusable the slot keeps its pointer and every TTI keeps
    // falling back explicitly.
    if (impl != fallback_impl) {
      (void)module.set_behavior(record.slot, std::string(fallback_impl));
    }
  }
  if (hook_) hook_(record);
}

lte::SchedulingDecision VsfGuard::run_mac_slot(MacControlModule& mac, std::string_view slot,
                                               std::string_view fallback_impl, AgentApi& api,
                                               std::int64_t subframe, Schedule schedule) {
  lte::SchedulingDecision decision;
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;

  Vsf* active = mac.active_vsf(slot);
  if (active == nullptr) return decision;
  const std::string& active_impl = mac.active_implementation(slot);
  if (active_impl != fallback_impl && cache_->is_quarantined(mac.name(), slot, active_impl)) {
    ++quarantined_invocations_;
  }

  auto outcome =
      invoke_checked(*active, [&] { decision = schedule(*active, api, subframe); });
  if (!outcome.failed()) {
    auto valid = validate_decision(decision, api);
    if (!valid.ok()) outcome = {proto::VsfFailureKind::invalid_decision, valid.error().message};
  }
  if (!outcome.failed()) {
    cache_->record_success(mac.name(), slot, active_impl);
    return decision;
  }

  // Failure: account for it, then produce a safe decision from the local
  // default within the same TTI. The name is copied first: a quarantine
  // relinks the slot, which rewrites the active name.
  const auto fallback_start = std::chrono::steady_clock::now();
  const std::string impl = active_impl;
  note_failure(mac, slot, impl, fallback_impl, outcome, subframe);

  decision = {};
  decision.cell_id = api.cell_id();
  decision.subframe = subframe;
  Vsf* fallback = cache_->get(mac.name(), slot, fallback_impl);
  if (fallback == nullptr || impl == fallback_impl) {
    // No healthy fallback distinct from the failed implementation: the TTI
    // goes unscheduled (still a valid, empty decision).
    ++unscheduled_slots_;
    return decision;
  }
  auto fb_outcome =
      invoke_checked(*fallback, [&] { decision = schedule(*fallback, api, subframe); });
  if (!fb_outcome.failed()) {
    auto valid = validate_decision(decision, api);
    if (!valid.ok()) fb_outcome = {proto::VsfFailureKind::invalid_decision, valid.error().message};
  }
  if (fb_outcome.failed()) {
    note_failure(mac, slot, fallback_impl, fallback_impl, fb_outcome, subframe);
    decision = {};
    decision.cell_id = api.cell_id();
    decision.subframe = subframe;
    ++unscheduled_slots_;
    return decision;
  }
  ++fallback_decisions_;
  fallback_latency_us_.add(static_cast<double>(elapsed_us(fallback_start)));
  return decision;
}

lte::SchedulingDecision VsfGuard::run_dl(MacControlModule& mac, std::string_view fallback_impl,
                                         AgentApi& api, std::int64_t subframe) {
  return run_mac_slot(mac, MacControlModule::kDlSchedulerSlot, fallback_impl, api, subframe,
                      [](Vsf& vsf, AgentApi& a, std::int64_t sf) {
                        return dynamic_cast<DlSchedulerVsf&>(vsf).schedule_dl(a, sf);
                      });
}

lte::SchedulingDecision VsfGuard::run_ul(MacControlModule& mac, std::string_view fallback_impl,
                                         AgentApi& api, std::int64_t subframe) {
  return run_mac_slot(mac, MacControlModule::kUlSchedulerSlot, fallback_impl, api, subframe,
                      [](Vsf& vsf, AgentApi& a, std::int64_t sf) {
                        return dynamic_cast<UlSchedulerVsf&>(vsf).schedule_ul(a, sf);
                      });
}

std::optional<HandoverDecision> VsfGuard::run_handover(RrcControlModule& rrc,
                                                       std::string_view fallback_impl,
                                                       AgentApi& api, std::int64_t subframe) {
  HandoverPolicyVsf* active = rrc.handover_policy();
  if (active == nullptr) return std::nullopt;
  constexpr std::string_view slot = RrcControlModule::kHandoverPolicySlot;
  const std::string& active_impl = rrc.active_implementation(slot);
  if (active_impl != fallback_impl && cache_->is_quarantined(rrc.name(), slot, active_impl)) {
    ++quarantined_invocations_;
  }

  std::optional<HandoverDecision> decision;
  auto outcome = invoke_checked(*active, [&] { decision = active->evaluate(api, subframe); });
  if (!outcome.failed() && decision.has_value()) {
    // Light-weight validation: the target must be another cell and the UE
    // must be known to the MAC.
    if (api.ue(decision->rnti) == nullptr) {
      outcome = {proto::VsfFailureKind::invalid_decision,
                 "handover for unknown RNTI " + std::to_string(decision->rnti)};
    } else if (decision->target_cell == api.cell_id()) {
      outcome = {proto::VsfFailureKind::invalid_decision, "handover to the serving cell"};
    }
  }
  if (!outcome.failed()) {
    cache_->record_success(rrc.name(), slot, active_impl);
    return decision;
  }

  const auto fallback_start = std::chrono::steady_clock::now();
  const std::string impl = active_impl;  // a quarantine relink rewrites it
  note_failure(rrc, slot, impl, fallback_impl, outcome, subframe);
  decision.reset();
  Vsf* fallback = cache_->get(rrc.name(), slot, fallback_impl);
  auto* fb = dynamic_cast<HandoverPolicyVsf*>(fallback);
  if (fb == nullptr || impl == fallback_impl) {
    // Handover is best-effort: no fallback means no trigger this TTI, the
    // data plane keeps running, so this is not an unscheduled slot.
    return std::nullopt;
  }
  auto fb_outcome = invoke_checked(*fb, [&] { decision = fb->evaluate(api, subframe); });
  if (fb_outcome.failed()) {
    note_failure(rrc, slot, fallback_impl, fallback_impl, fb_outcome, subframe);
    return std::nullopt;
  }
  ++fallback_decisions_;
  fallback_latency_us_.add(static_cast<double>(elapsed_us(fallback_start)));
  return decision;
}

}  // namespace flexran::agent
