// Delegated-control containment (docs/delegation_safety.md): guarded VSF
// execution -- exception/overrun/invalid-decision containment with
// same-TTI fallback, decision validation against the cell configuration,
// quarantine after consecutive failures, atomic two-phase policy apply,
// master-side last-known-good rollback, and remote-scheduler demotion.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/remote_scheduler.h"
#include "lte/tables.h"
#include "scenario/config.h"
#include "scenario/testbed.h"

namespace flexran {
namespace {

scenario::EnbSpec basic_spec(lte::EnbId id = 1, double bandwidth_mhz = 10.0) {
  scenario::EnbSpec spec;
  spec.enb.enb_id = id;
  spec.enb.cells[0].cell_id = id;
  spec.enb.cells[0].bandwidth_mhz = bandwidth_mhz;
  spec.agent.name = "guard-" + std::to_string(id);
  return spec;
}

stack::UeProfile fixed_ue(int cqi, std::int64_t attach_after = 1) {
  stack::UeProfile profile;
  profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqi);
  profile.attach_after_ttis = attach_after;
  return profile;
}

constexpr const char* kFaultyPolicy =
    "mac:\n"
    "  dl_ue_scheduler:\n"
    "    behavior: faulty_crash\n";
constexpr const char* kGoodPolicy =
    "mac:\n"
    "  dl_ue_scheduler:\n"
    "    behavior: local_rr\n";

// ------------------------------------------------------------ validation --

TEST(VsfGuardValidation, FullBandwidthValidAtEveryTier) {
  const struct {
    double mhz;
    int prbs;
  } tiers[] = {{1.4, 6}, {3.0, 15}, {5.0, 25}, {10.0, 50}, {15.0, 75}, {20.0, 100}};
  for (const auto& tier : tiers) {
    scenario::Testbed testbed(scenario::per_tti_master_config());
    auto& enb = testbed.add_enb(basic_spec(1, tier.mhz));
    const auto rnti = testbed.add_ue(0, fixed_ue(12));
    testbed.run_ttis(50);
    ASSERT_EQ(enb.agent->api().dl_prbs(), tier.prbs);

    auto& guard = enb.agent->vsf_guard();
    lte::SchedulingDecision decision;
    decision.cell_id = enb.agent->api().cell_id();
    lte::DlDci dci;
    dci.rnti = rnti;
    dci.mcs = 10;
    dci.rbs.set_range(0, tier.prbs);
    decision.dl.push_back(dci);
    EXPECT_TRUE(guard.validate_decision(decision, enb.agent->api()).ok())
        << tier.mhz << " MHz full allocation";

    // One PRB past the cell bandwidth is invalid at every tier below the
    // bitset cap (100 PRBs cannot over-allocate representably).
    if (tier.prbs < lte::kMaxPrbs) {
      lte::SchedulingDecision over;
      over.cell_id = decision.cell_id;
      lte::DlDci bad = dci;
      bad.rbs.set(tier.prbs);
      over.dl.push_back(bad);
      EXPECT_FALSE(guard.validate_decision(over, enb.agent->api()).ok())
          << tier.mhz << " MHz PRB " << tier.prbs;
    }
  }
}

TEST(VsfGuardValidation, UnclippedLastRbgRejectedClippedAccepted) {
  // 3 MHz = 15 PRBs, RBG size 2: the last RBG nominally covers PRBs 14-15
  // but PRB 15 does not exist; a scheduler must clip it to PRB 14 alone.
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec(1, 3.0));
  const auto rnti = testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);
  ASSERT_EQ(enb.agent->api().dl_prbs(), 15);

  auto& guard = enb.agent->vsf_guard();
  lte::SchedulingDecision decision;
  decision.cell_id = enb.agent->api().cell_id();
  lte::DlDci dci;
  dci.rnti = rnti;
  dci.mcs = 5;
  dci.rbs.set_range(14, 2);  // unclipped last RBG: PRBs 14 and 15
  decision.dl.push_back(dci);
  EXPECT_FALSE(guard.validate_decision(decision, enb.agent->api()).ok());

  decision.dl[0].rbs = {};
  decision.dl[0].rbs.set(14);  // clipped to the one real PRB
  EXPECT_TRUE(guard.validate_decision(decision, enb.agent->api()).ok());
}

TEST(VsfGuardValidation, RejectsOverlapUnknownRntiBadMcsAndBadCarrier) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  const auto rnti = testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);
  auto& guard = enb.agent->vsf_guard();
  const auto& api = enb.agent->api();

  auto base = [&] {
    lte::SchedulingDecision decision;
    decision.cell_id = api.cell_id();
    lte::DlDci dci;
    dci.rnti = rnti;
    dci.mcs = 10;
    dci.rbs.set_range(0, 10);
    decision.dl.push_back(dci);
    return decision;
  };

  EXPECT_TRUE(guard.validate_decision(base(), api).ok());

  auto overlapping = base();
  lte::DlDci second = overlapping.dl[0];
  second.rbs = {};
  second.rbs.set_range(5, 12);  // PRBs 5..16; 5..9 collide with the first grant
  overlapping.dl.push_back(second);
  EXPECT_FALSE(guard.validate_decision(overlapping, api).ok());

  auto unknown = base();
  unknown.dl[0].rnti = 0xFFF0;
  EXPECT_FALSE(guard.validate_decision(unknown, api).ok());

  auto bad_mcs = base();
  bad_mcs.dl[0].mcs = lte::kMaxMcs + 1;
  EXPECT_FALSE(guard.validate_decision(bad_mcs, api).ok());

  auto empty_grant = base();
  empty_grant.dl[0].rbs = {};
  EXPECT_FALSE(guard.validate_decision(empty_grant, api).ok());

  // Carrier 1 without a configured SCell is unschedulable.
  auto bad_carrier = base();
  bad_carrier.dl[0].carrier = 1;
  EXPECT_FALSE(guard.validate_decision(bad_carrier, api).ok());

  // UL validation: same PRB-bound rule against ul_prbs().
  lte::SchedulingDecision ul;
  ul.cell_id = api.cell_id();
  lte::UlDci grant;
  grant.rnti = rnti;
  grant.mcs = 10;
  grant.rbs.set_range(0, api.ul_prbs());
  ul.ul.push_back(grant);
  EXPECT_TRUE(guard.validate_decision(ul, api).ok());
  ul.ul[0].rbs.set(api.ul_prbs());
  EXPECT_FALSE(guard.validate_decision(ul, api).ok());
}

TEST(VsfGuardValidation, EmptyDecisionFastPathSkipsValidationWork) {
  // No UEs, no traffic: every TTI produces empty DL and UL decisions, which
  // must short-circuit before any validation bookkeeping.
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);
  EXPECT_EQ(enb.agent->vsf_guard().validations_run(), 0u);

  // With an attached UE and queued traffic, decisions are non-empty and
  // validation actually runs.
  const auto rnti = testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(20);
  (void)testbed.epc().downlink(rnti, 20'000);
  testbed.run_ttis(20);
  EXPECT_GT(enb.agent->vsf_guard().validations_run(), 0u);
}

// ----------------------------------------------------------- containment --

TEST(VsfGuardContainment, CrashingVsfFallsBackSameTtiAndQuarantines) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_crash").ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kFaultyPolicy).ok());
  testbed.run_ttis(50);

  const auto& guard = enb.agent->vsf_guard();
  EXPECT_GE(guard.vsf_failures(), 3u);
  EXPECT_EQ(guard.quarantines(), 1u);
  // Every failed TTI produced a fallback decision in the same TTI; no TTI
  // went unscheduled.
  EXPECT_GE(guard.fallback_decisions(), 3u);
  EXPECT_EQ(guard.unscheduled_slots(), 0u);
  EXPECT_GE(guard.fallback_latency_us().count(), 3u);
  // The slot was relinked to the built-in fallback.
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");
  EXPECT_TRUE(
      enb.agent->vsf_cache().is_quarantined("mac", "dl_ue_scheduler", "faulty_crash"));
}

TEST(VsfGuardContainment, OverrunVsfFailsDeadlineBudget) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_overrun").ok());
  ASSERT_TRUE(testbed.master()
                  .send_policy(enb.agent_id,
                               "mac:\n  dl_ue_scheduler:\n    behavior: faulty_overrun\n")
                  .ok());
  testbed.run_ttis(30);

  EXPECT_GE(enb.agent->vsf_guard().vsf_failures(), 3u);
  EXPECT_EQ(enb.agent->vsf_guard().quarantines(), 1u);
  EXPECT_EQ(enb.agent->vsf_guard().unscheduled_slots(), 0u);
  EXPECT_TRUE(
      enb.agent->vsf_cache().is_quarantined("mac", "dl_ue_scheduler", "faulty_overrun"));
}

TEST(VsfGuardContainment, InvalidDecisionNeverReachesMac) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_invalid").ok());
  ASSERT_TRUE(testbed.master()
                  .send_policy(enb.agent_id,
                               "mac:\n  dl_ue_scheduler:\n    behavior: faulty_invalid\n")
                  .ok());
  testbed.run_ttis(50);

  EXPECT_GE(enb.agent->vsf_guard().vsf_failures(), 3u);
  EXPECT_EQ(enb.agent->vsf_guard().quarantines(), 1u);
  EXPECT_EQ(enb.agent->vsf_guard().unscheduled_slots(), 0u);
  // The bogus RNTI the faulty VSF grants must never have been scheduled:
  // it is unknown to the data plane, so any delivered bytes for it would
  // mean the invalid decision reached the MAC.
  EXPECT_EQ(testbed.metrics().total_bytes(1, 0xFFF0, lte::Direction::downlink), 0u);
}

TEST(VsfGuardContainment, QuarantinedPolicyRejectedUntilFreshUpdation) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_crash").ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kFaultyPolicy).ok());
  testbed.run_ttis(30);
  ASSERT_TRUE(
      enb.agent->vsf_cache().is_quarantined("mac", "dl_ue_scheduler", "faulty_crash"));

  // Re-linking the quarantined implementation is refused on both paths.
  EXPECT_FALSE(enb.agent->mac()
                   .set_behavior(agent::MacControlModule::kDlSchedulerSlot, "faulty_crash")
                   .ok());
  EXPECT_FALSE(enb.agent->apply_policy(kFaultyPolicy).ok());
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");

  // A fresh VSF updation re-instantiates the implementation and clears the
  // quarantine (the paper's updation path doubles as the recovery path).
  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_crash").ok());
  testbed.run_ttis(10);
  EXPECT_FALSE(
      enb.agent->vsf_cache().is_quarantined("mac", "dl_ue_scheduler", "faulty_crash"));
  EXPECT_TRUE(enb.agent->apply_policy(kFaultyPolicy).ok());
}

// ------------------------------------------------------- policy atomicity --

TEST(PolicyAtomicity, MalformedDocumentsRejectedWithoutPartialApply) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);
  const auto active = [&] {
    return enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot);
  };
  ASSERT_EQ(active(), "local_rr");

  // Bad nesting: the slot spec must be a map.
  EXPECT_FALSE(enb.agent->apply_policy("mac:\n  dl_ue_scheduler: local_pf\n").ok());
  // Non-scalar where a scalar is expected.
  EXPECT_FALSE(
      enb.agent->apply_policy("mac:\n  dl_ue_scheduler:\n    behavior:\n      - local_pf\n")
          .ok());
  // Unknown module and unknown VSF slot.
  EXPECT_FALSE(enb.agent->apply_policy("phy:\n  precoder:\n    behavior: local_rr\n").ok());
  EXPECT_FALSE(enb.agent->apply_policy("mac:\n  bogus_slot:\n    behavior: local_rr\n").ok());
  // Unknown implementation.
  EXPECT_FALSE(
      enb.agent->apply_policy("mac:\n  dl_ue_scheduler:\n    behavior: no_such_impl\n").ok());
  EXPECT_EQ(active(), "local_rr");
}

TEST(PolicyAtomicity, BadParameterLeavesWholeDocumentUnapplied) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  // The behavior is valid but a parameter is not: two-phase validation must
  // reject the document before the behavior swap, not after.
  EXPECT_FALSE(enb.agent
                   ->apply_policy(
                       "mac:\n"
                       "  dl_ue_scheduler:\n"
                       "    behavior: local_pf\n"
                       "    parameters:\n"
                       "      max_ues_per_tti: 0\n")
                   .ok());
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");

  // Unknown parameter names are validated against the pending behavior too.
  EXPECT_FALSE(enb.agent
                   ->apply_policy(
                       "mac:\n"
                       "  dl_ue_scheduler:\n"
                       "    behavior: local_pf\n"
                       "    parameters:\n"
                       "      bogus_knob: 7\n")
                   .ok());
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");

  // The same document with a sane parameter applies.
  EXPECT_TRUE(enb.agent
                  ->apply_policy(
                      "mac:\n"
                      "  dl_ue_scheduler:\n"
                      "    behavior: local_pf\n"
                      "    parameters:\n"
                      "      max_ues_per_tti: 4\n")
                  .ok());
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_pf");
}

TEST(PolicyAtomicity, RejectedRemotePolicyReportsVerdictToMaster) {
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.run_ttis(30);

  ASSERT_TRUE(testbed.master()
                  .send_policy(enb.agent_id, "mac:\n  bogus_slot:\n    behavior: local_rr\n")
                  .ok());
  testbed.run_ttis(30);
  testbed.master().quiesce();

  EXPECT_EQ(enb.agent->policies_rejected(), 1u);
  EXPECT_EQ(enb.agent->policies_applied(), 0u);
  EXPECT_EQ(testbed.master().stats().policies_rejected, 1u);
  // Nothing entered the last-known-good history.
  EXPECT_EQ(testbed.master().last_known_good_policy(enb.agent_id), "");
}

// -------------------------------------------------------- master rollback --

TEST(MasterRollback, QuarantineRollsBackToLastKnownGood) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  // Establish a known-good policy first.
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kGoodPolicy).ok());
  testbed.run_ttis(30);
  ASSERT_EQ(testbed.master().last_known_good_policy(enb.agent_id), kGoodPolicy);

  // Now delegate a crashing implementation: it applies, fails, quarantines.
  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_crash").ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kFaultyPolicy).ok());
  testbed.run_ttis(60);
  testbed.master().quiesce();

  EXPECT_EQ(testbed.master().stats().policy_rollbacks, 1u);
  // The faulty policy was purged from history; the survivor is the good one.
  EXPECT_EQ(testbed.master().last_known_good_policy(enb.agent_id), kGoodPolicy);
  // The rolled-back policy reached the agent and applied.
  EXPECT_EQ(enb.agent->mac().active_implementation(agent::MacControlModule::kDlSchedulerSlot),
            "local_rr");
  EXPECT_GE(enb.agent->policies_applied(), 3u);  // good, faulty, rollback
  EXPECT_EQ(enb.agent->vsf_guard().unscheduled_slots(), 0u);
}

TEST(MasterRollback, RemoteSchedulerDemotesOnQuarantineAndRecovers) {
  agent::register_faulty_vsfs();
  scenario::Testbed testbed(scenario::per_tti_master_config());
  auto* remote = static_cast<apps::RemoteSchedulerApp*>(
      testbed.master().add_app(std::make_unique<apps::RemoteSchedulerApp>()));
  auto& enb = testbed.add_enb(basic_spec());
  testbed.add_ue(0, fixed_ue(12));
  testbed.run_ttis(50);

  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kGoodPolicy).ok());
  testbed.run_ttis(30);
  ASSERT_TRUE(
      testbed.master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", "faulty_crash").ok());
  ASSERT_TRUE(testbed.master().send_policy(enb.agent_id, kFaultyPolicy).ok());
  testbed.run_ttis(60);
  testbed.master().quiesce();

  // The quarantine event demoted the agent to local scheduling; the
  // rollback's policy_applied verdict re-promoted it -- the same two-way
  // degradation path the latency fallback uses.
  EXPECT_EQ(remote->demotions(), 1u);
  EXPECT_FALSE(remote->is_demoted(enb.agent_id));
  EXPECT_EQ(testbed.master().stats().policy_rollbacks, 1u);
}

// ---------------------------------------------------- scenario integration --

TEST(ScenarioIntegration, VsfFaultKindsParseAndRunContained) {
  const std::string yaml =
      "duration_s: 1.5\n"
      "stats_period_ttis: 2\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "ues:\n"
      "  - enb: 1\n"
      "    cqi: 12\n"
      "    traffic: full_buffer\n"
      "faults:\n"
      "  - at_s: 0.3\n"
      "    kind: vsf_crash\n"
      "    enb: 0\n"
      "  - at_s: 0.8\n"
      "    kind: vsf_invalid\n"
      "    enb: 0\n";
  auto spec = scenario::parse_scenario(yaml);
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->faults.size(), 2u);
  EXPECT_EQ(spec->faults[0].kind, scenario::FaultKind::vsf_crash);
  EXPECT_EQ(spec->faults[1].kind, scenario::FaultKind::vsf_invalid);

  const auto summary = scenario::run_scenario(*spec);
  EXPECT_EQ(summary.vsf_quarantines, 2u);
  EXPECT_GE(summary.vsf_failures, 6u);
  EXPECT_GE(summary.fleet.policy_rollbacks, 1u);
  EXPECT_EQ(summary.unscheduled_slots, 0u);
  EXPECT_EQ(summary.agents_on_valid_policy, summary.agents_total);
}

TEST(ScenarioIntegration, UnknownFaultKindRejected) {
  const std::string yaml =
      "duration_s: 1\n"
      "enbs:\n"
      "  - enb_id: 1\n"
      "faults:\n"
      "  - at_s: 0.1\n"
      "    kind: vsf_meltdown\n";
  EXPECT_FALSE(scenario::parse_scenario(yaml).ok());
}

}  // namespace
}  // namespace flexran
