// Built-in VSF implementations shipped with the platform: local downlink
// round-robin and proportional-fair schedulers, a local uplink round-robin
// scheduler, the remote-stub downlink scheduler (applies decisions pushed by
// the master, enabling centralized scheduling), and an A3-style handover
// policy. Use-case-specific VSFs (RAN slicing, eICIC) live in src/apps.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "agent/vsf.h"

namespace flexran::agent {

/// Registers the built-in implementations with the process-wide VsfFactory
/// (idempotent). Names:
///   mac/dl_ue_scheduler/local_rr, mac/dl_ue_scheduler/local_pf,
///   mac/ul_ue_scheduler/local_rr, rrc/handover_policy/a3
void register_builtin_vsfs();

/// Registers deliberately misbehaving DL schedulers with the VsfFactory
/// (idempotent) for chaos testing and the faulty-VSF bench sweep:
///   mac/dl_ue_scheduler/faulty_crash    -- throws every invocation
///   mac/dl_ue_scheduler/faulty_overrun  -- declares 5x the TTI budget
///   mac/dl_ue_scheduler/faulty_invalid  -- emits out-of-bounds allocations
/// Never registered by the Agent itself; tests / FaultInjector opt in.
void register_faulty_vsfs();

// ----------------------------------------------------------- helper -------

/// A scheduler's per-UE demand for one TTI.
struct PrbDemand {
  lte::Rnti rnti = lte::kInvalidRnti;
  int mcs = 0;
  int prbs_wanted = 0;
};

/// Packs demands into contiguous PRB chunks starting at `first_prb`,
/// honoring `total_prbs` (the budget from first_prb onward). Demands are
/// served in the given order; a UE receives at most prbs_wanted. Returns
/// DCIs for every UE that got at least one PRB. `first_prb` lets slice
/// schedulers place operators side by side in the grid.
std::vector<lte::DlDci> pack_dl_allocations(const std::vector<PrbDemand>& demands,
                                            int total_prbs, int first_prb = 0);
std::vector<lte::UlDci> pack_ul_allocations(const std::vector<PrbDemand>& demands,
                                            int total_prbs, int first_prb = 0);

/// Equal-share PRB split with leftover redistribution (exposed for reuse by
/// use-case schedulers such as the RAN-sharing sliced VSF).
std::vector<PrbDemand> equal_share_demands(std::vector<PrbDemand> wants, int total_prbs);

/// PRBs needed to move `bits` at MCS `mcs` (at least 1).
int prbs_needed(std::int64_t bits, int mcs);

// ------------------------------------------------------------ DL VSFs -----

/// Equal-share round robin: active UEs split the carrier evenly; the start
/// of the rotation advances every TTI so leftover PRBs circulate.
class RoundRobinDlVsf final : public DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) override;

 private:
  std::size_t rotation_ = 0;
  std::vector<stack::SchedUeInfo> view_;  // reused every TTI
};

/// Proportional fair: UEs ranked by instantaneous-rate / average-rate; the
/// top `max_ues_per_tti` share the carrier.
class ProportionalFairDlVsf final : public DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) override;
  util::Status set_parameter(std::string_view key, const util::YamlNode& value) override;
  util::Status validate_parameter(std::string_view key,
                                  const util::YamlNode& value) const override;

 private:
  int max_ues_per_tti_ = 4;
};

/// Carrier-aggregation round robin: the PCell is shared round-robin by all
/// active UEs (exactly like RoundRobinDlVsf); UEs whose secondary carrier
/// is activated additionally share the SCell. Demand is split pessimistically
/// (each carrier offered the full remaining need; HARQ capacity and queue
/// draining bound the real usage).
class CaRoundRobinDlVsf final : public DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) override;

 private:
  std::size_t rotation_ = 0;
  std::size_t scell_rotation_ = 0;
};

/// Remote stub: the local scheduler is inactive and the master controller
/// drives scheduling entirely. (The agent merges master-pushed decisions
/// into every subframe regardless of the active VSF, so the stub itself
/// schedules nothing -- it exists so "behavior: remote" is an explicit,
/// swappable policy, per paper Sec. 5.4.)
class RemoteStubDlVsf final : public DlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_dl(AgentApi& api, std::int64_t subframe) override;
  bool remote() const override { return true; }
};

// ------------------------------------------------------------ UL VSF ------

class RoundRobinUlVsf final : public UlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_ul(AgentApi& api, std::int64_t subframe) override;

 private:
  std::size_t rotation_ = 0;
  std::vector<stack::SchedUeInfo> view_;  // reused every TTI
};

/// Remote stub for the uplink slot: local UL scheduling inactive, the
/// master's UlMacConfig messages drive the uplink.
class RemoteStubUlVsf final : public UlSchedulerVsf {
 public:
  lte::SchedulingDecision schedule_ul(AgentApi& api, std::int64_t subframe) override;
};

// ----------------------------------------------------------- RRC VSF ------

/// Event-A3-style trigger: hand a UE over when a neighbor cell's received
/// power exceeds the serving cell's by `hysteresis_db` (parameter) for
/// `time_to_trigger_ttis` consecutive evaluations.
class A3HandoverVsf final : public HandoverPolicyVsf {
 public:
  std::optional<HandoverDecision> evaluate(AgentApi& api, std::int64_t subframe) override;
  util::Status set_parameter(std::string_view key, const util::YamlNode& value) override;
  util::Status validate_parameter(std::string_view key,
                                  const util::YamlNode& value) const override;

 private:
  double hysteresis_db_ = 3.0;
  int time_to_trigger_ttis_ = 40;
  std::map<lte::Rnti, int> streak_;
};

}  // namespace flexran::agent
