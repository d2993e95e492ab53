// Delegated-control containment (the robustness counterpart of paper
// Sec. 4.3.1): every CMI slot invocation runs through VsfGuard, which
// treats pushed VSF code as untrusted. The guard
//
//   1. catches exceptions escaping a VSF,
//   2. enforces a per-invocation deadline budget (simulated time via
//      Vsf::declared_cost_us, backstopped by a generous wall-clock cap for
//      real overruns under the testbed),
//   3. validates every SchedulingDecision against the cell configuration
//      before it reaches the MAC (PRB bounds per carrier, overlapping
//      allocations, unknown RNTIs, out-of-range MCS), and
//   4. on any failure falls back to the built-in local default VSF for
//      that slot within the SAME TTI, so the data plane never misses a
//      scheduling opportunity.
//
// Failures are counted per cached implementation; after
// `kVsfQuarantineThreshold` consecutive failures the implementation is
// quarantined in the VsfCache (policy reconfiguration to it is rejected
// until the master pushes a fresh VSF updation) and the slot is relinked
// to the fallback implementation. The failure hook lets the Agent turn
// guard verdicts into vsf_failure / vsf_quarantined triggered events.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "agent/control_module.h"
#include "agent/vsf.h"
#include "proto/messages.h"
#include "util/stats.h"

namespace flexran::agent {

/// Consecutive failures of one implementation before quarantine.
inline constexpr std::uint32_t kVsfQuarantineThreshold = 3;
/// Simulated-time budget per invocation, charged from declared_cost_us():
/// one 1 ms TTI.
inline constexpr std::int64_t kVsfBudgetUs = 1000;
/// Wall-clock backstop for real (undeclared) overruns. Deliberately generous
/// so legitimate schedulers never trip it under sanitizers or debug builds;
/// an infinite loop still gets caught.
inline constexpr std::int64_t kVsfWallClockCapUs = 250'000;

/// One guard verdict, delivered to the failure hook (and from there to the
/// master as a triggered event).
struct VsfFailureRecord {
  std::string module;
  std::string slot;
  std::string implementation;
  proto::VsfFailureKind kind = proto::VsfFailureKind::none;
  std::uint32_t consecutive_failures = 0;
  bool quarantined = false;
  std::int64_t subframe = 0;
  std::string detail;
};

class VsfGuard {
 public:
  using FailureHook = std::function<void(const VsfFailureRecord&)>;

  explicit VsfGuard(VsfCache& cache) : cache_(&cache) {}

  void set_failure_hook(FailureHook hook) { hook_ = std::move(hook); }

  /// Guarded invocation of the MAC DL / UL scheduling slots. Always returns
  /// a decision that is safe to hand to the MAC (possibly empty).
  /// `fallback_impl` names the built-in local default in the VsfCache.
  lte::SchedulingDecision run_dl(MacControlModule& mac, std::string_view fallback_impl,
                                 AgentApi& api, std::int64_t subframe);
  lte::SchedulingDecision run_ul(MacControlModule& mac, std::string_view fallback_impl,
                                 AgentApi& api, std::int64_t subframe);

  /// Guarded invocation of the RRC handover-policy slot.
  std::optional<HandoverDecision> run_handover(RrcControlModule& rrc,
                                               std::string_view fallback_impl, AgentApi& api,
                                               std::int64_t subframe);

  /// Checks a decision against the cell configuration: per-carrier PRB
  /// bounds (dl_prbs / scell_prbs / ul_prbs), non-empty grants, overlap
  /// within a carrier, MCS range, RNTIs known to the MAC. Empty decisions
  /// short-circuit before any per-DCI work (and before validations_run()
  /// is incremented) -- the common nothing-to-send TTI costs nothing.
  util::Status validate_decision(const lte::SchedulingDecision& decision, const AgentApi& api);

  // Introspection.
  std::uint64_t vsf_failures() const { return vsf_failures_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t fallback_decisions() const { return fallback_decisions_; }
  std::uint64_t unscheduled_slots() const { return unscheduled_slots_; }
  std::uint64_t validations_run() const { return validations_run_; }
  /// Invocations of an implementation that was already quarantined (and is
  /// not the designated fallback). The quarantine relink in note_failure
  /// is supposed to make this impossible; the InvariantMonitor reads it
  /// every coordinator cycle and flags any increase
  /// (docs/fault_tolerance.md, invariant catalog).
  std::uint64_t quarantined_invocations() const { return quarantined_invocations_; }
  /// Wall-clock time from failure detection to a validated fallback
  /// decision, per fallback invocation (the bench's "fallback latency").
  const util::RunningStats& fallback_latency_us() const { return fallback_latency_us_; }

 private:
  struct InvokeOutcome {
    proto::VsfFailureKind kind = proto::VsfFailureKind::none;
    std::string detail;
    bool failed() const { return kind != proto::VsfFailureKind::none; }
  };

  /// One MAC slot's scheduling call on a VSF of that slot.
  using Schedule = lte::SchedulingDecision (*)(Vsf&, AgentApi&, std::int64_t subframe);

  /// Budget check + exception containment around one VSF invocation.
  template <typename Body>
  InvokeOutcome invoke_checked(const Vsf& vsf, Body&& body);
  /// Failure bookkeeping: per-impl counters, quarantine + slot relink to
  /// the fallback, hook dispatch.
  void note_failure(ControlModule& module, std::string_view slot, std::string_view impl,
                    std::string_view fallback_impl, const InvokeOutcome& outcome,
                    std::int64_t subframe);

  lte::SchedulingDecision run_mac_slot(MacControlModule& mac, std::string_view slot,
                                       std::string_view fallback_impl, AgentApi& api,
                                       std::int64_t subframe, Schedule schedule);

  VsfCache* cache_;  // not owned
  FailureHook hook_;

  std::uint64_t vsf_failures_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t fallback_decisions_ = 0;
  std::uint64_t unscheduled_slots_ = 0;
  std::uint64_t validations_run_ = 0;
  std::uint64_t quarantined_invocations_ = 0;
  util::RunningStats fallback_latency_us_;
};

}  // namespace flexran::agent
