#include "scenario/fault_injector.h"

#include "agent/schedulers.h"
#include "util/logging.h"
#include "util/strings.h"

namespace flexran::scenario {

namespace {
// Request-id range reserved for report_flood registrations, far above
// anything the master or scenario apps hand out.
constexpr std::uint32_t kFloodRequestIdBase = 0xF1000000u;
}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::partition: return "partition";
    case FaultKind::heal: return "heal";
    case FaultKind::delay_spike: return "delay_spike";
    case FaultKind::corrupt: return "corrupt";
    case FaultKind::duplicate: return "duplicate";
    case FaultKind::crash: return "crash";
    case FaultKind::restart: return "restart";
    case FaultKind::flap: return "flap";
    case FaultKind::vsf_crash: return "vsf_crash";
    case FaultKind::vsf_overrun: return "vsf_overrun";
    case FaultKind::vsf_invalid: return "vsf_invalid";
    case FaultKind::report_flood: return "report_flood";
    case FaultKind::master_crash: return "master_crash";
    case FaultKind::shard_kill: return "shard_kill";
    case FaultKind::reorder: return "reorder";
    case FaultKind::shard_drain: return "shard_drain";
  }
  return "?";
}

void FaultInjector::schedule(const FaultEvent& event) {
  testbed_->sim().at(sim::from_seconds(event.at_s), [this, event] { apply(event); });
}

template <typename Fn>
void FaultInjector::for_each_target(int enb, Fn&& fn) {
  auto& enbs = testbed_->enbs();
  if (enb >= 0) {
    if (static_cast<std::size_t>(enb) < enbs.size()) fn(*enbs[enb]);
    return;
  }
  for (auto& target : enbs) fn(*target);
}

void FaultInjector::note(const FaultEvent& event, const std::string& extra) {
  FLEXRAN_LOG(info, "chaos") << "t=" << sim::to_seconds(testbed_->sim().now()) << "s inject "
                             << util::format("%s enb=%d%s", to_string(event.kind), event.enb,
                                             extra.empty() ? "" : (" " + extra).c_str());
  ++faults_injected_;
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::partition: {
      note(event, event.duration_s > 0
                      ? util::format("for %.3fs", event.duration_s)
                      : std::string());
      for_each_target(event.enb, [](Testbed::Enb& enb) { enb.set_control_down(true); });
      if (event.duration_s > 0) {
        FaultEvent heal = event;
        heal.kind = FaultKind::heal;
        heal.at_s = sim::to_seconds(testbed_->sim().now()) + event.duration_s;
        schedule(heal);
      }
      break;
    }
    case FaultKind::heal:
      note(event);
      for_each_target(event.enb, [](Testbed::Enb& enb) { enb.set_control_down(false); });
      break;
    case FaultKind::delay_spike: {
      note(event, util::format("to %.1fms", event.delay_ms));
      // Capture per-eNodeB baselines so the revert restores asymmetric
      // configurations correctly.
      std::vector<std::pair<Testbed::Enb*, sim::TimeUs>> baselines;
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        baselines.emplace_back(&enb, enb.master_side->delay());
        enb.set_control_latency(sim::from_ms(event.delay_ms));
      });
      if (event.duration_s > 0) {
        testbed_->sim().after(sim::from_seconds(event.duration_s), [baselines] {
          for (const auto& [enb, delay] : baselines) enb->set_control_latency(delay);
        });
      }
      break;
    }
    case FaultKind::corrupt:
      note(event, util::format("%d frames", event.count));
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        enb.master_side->corrupt_next(event.count);
        enb.agent_side->corrupt_next(event.count);
      });
      break;
    case FaultKind::duplicate:
      note(event, util::format("%d frames", event.count));
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        enb.master_side->duplicate_next(event.count);
        enb.agent_side->duplicate_next(event.count);
      });
      break;
    case FaultKind::reorder: {
      note(event, util::format("%d frames", event.count));
      // Each endpoint gets its own shuffle seed derived from the injection
      // order, so two reorder events on one link do not replay the same
      // permutation.
      const auto seed = 0x5eedULL + faults_injected_;
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        enb.master_side->reorder_next(event.count, seed);
        enb.agent_side->reorder_next(event.count, seed + 1);
      });
      // Deadline flush: frames held back on a channel that goes quiet (or
      // gets partitioned next) must still arrive eventually.
      testbed_->sim().after(sim::from_ms(200.0), [this, event] {
        for_each_target(event.enb, [](Testbed::Enb& enb) {
          enb.master_side->reorder_flush();
          enb.agent_side->reorder_flush();
        });
      });
      break;
    }
    case FaultKind::crash:
      note(event, event.duration_s > 0
                      ? util::format("restart in %.3fs", event.duration_s)
                      : std::string());
      for_each_target(event.enb, [](Testbed::Enb& enb) { enb.crash_agent(); });
      if (event.duration_s > 0) {
        FaultEvent restart = event;
        restart.kind = FaultKind::restart;
        restart.at_s = sim::to_seconds(testbed_->sim().now()) + event.duration_s;
        schedule(restart);
      }
      break;
    case FaultKind::restart:
      note(event);
      for_each_target(event.enb, [](Testbed::Enb& enb) { enb.restart_agent(); });
      break;
    case FaultKind::flap: {
      note(event, util::format("%d cycles of %.3fs", event.count, event.period_s));
      const sim::TimeUs period = sim::from_seconds(event.period_s);
      for (int cycle = 0; cycle < event.count; ++cycle) {
        const sim::TimeUs down_at = 2 * cycle * period;
        testbed_->sim().after(down_at, [this, event] {
          for_each_target(event.enb, [](Testbed::Enb& enb) { enb.set_control_down(true); });
        });
        testbed_->sim().after(down_at + period, [this, event] {
          for_each_target(event.enb, [](Testbed::Enb& enb) { enb.set_control_down(false); });
        });
      }
      break;
    }
    case FaultKind::vsf_crash:
    case FaultKind::vsf_overrun:
    case FaultKind::vsf_invalid: {
      const char* impl = event.kind == FaultKind::vsf_crash      ? "faulty_crash"
                         : event.kind == FaultKind::vsf_overrun ? "faulty_overrun"
                                                                : "faulty_invalid";
      note(event, util::format("impl=%s", impl));
      // The faulty implementations are opt-in (never registered by the
      // Agent); injecting one makes it resolvable at updation time.
      agent::register_faulty_vsfs();
      // Deliver the fault through the legitimate delegation path -- VSF
      // updation then policy reconfiguration (paper Sec. 4.3.1) -- so the
      // whole containment chain is exercised: guard fallback, quarantine,
      // triggered events, and the master's policy rollback.
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        // Seed a known-good policy first (the built-in round-robin ships in
        // every cache), so the master has something to roll back to when
        // the quarantine event arrives.
        (void)testbed_->master().send_policy(
            enb.agent_id, "mac:\n  dl_ue_scheduler:\n    behavior: local_rr\n");
        (void)testbed_->master().push_vsf(enb.agent_id, "mac", "dl_ue_scheduler", impl);
        (void)testbed_->master().send_policy(
            enb.agent_id,
            std::string("mac:\n  dl_ue_scheduler:\n    behavior: ") + impl + "\n");
      });
      break;
    }
    case FaultKind::report_flood: {
      note(event, util::format("%d regs%s", event.count,
                               event.duration_s > 0
                                   ? util::format(" for %.3fs", event.duration_s).c_str()
                                   : ""));
      // Registered straight at the ReportsManager, bypassing the master's
      // request accounting -- this is load the master did not ask for and
      // cannot renegotiate away, exactly what the Envelope throttle hint
      // exists for. Request ids live in a reserved range so the flood
      // never collides with (or cancels) legitimate registrations.
      for_each_target(event.enb, [&](Testbed::Enb& enb) {
        const std::int64_t now_sf = enb.agent->api().current_subframe();
        for (int i = 0; i < event.count; ++i) {
          proto::StatsRequest request;
          request.request_id = kFloodRequestIdBase + static_cast<std::uint32_t>(i);
          request.mode = proto::ReportMode::periodic;
          request.periodicity_ttis = 1;
          request.flags = proto::stats_flags::kAll;
          enb.agent->reports().register_request(request, now_sf);
        }
      });
      if (event.duration_s > 0) {
        testbed_->sim().after(sim::from_seconds(event.duration_s), [this, event] {
          for_each_target(event.enb, [&](Testbed::Enb& enb) {
            for (int i = 0; i < event.count; ++i) {
              enb.agent->reports().cancel_request(kFloodRequestIdBase +
                                                  static_cast<std::uint32_t>(i));
            }
          });
        });
      }
      break;
    }
    case FaultKind::master_crash: {
      note(event, util::format("shard=%d %s", event.shard,
                               event.duration_s > 0
                                   ? util::format("restart in %.3fs", event.duration_s).c_str()
                                   : "restart immediately"));
      auto& coordinator = testbed_->coordinator();
      const int shard = event.shard;
      // A shard crash only takes down the links of the agents that shard
      // owns -- its peers' control loops never notice. The blast radius IS
      // the isolation property the two-tier split buys.
      auto targets_shard = [&coordinator, shard](const Testbed::Enb& enb) {
        if (shard < 0) return true;
        const auto owner = coordinator.shard_of(enb.agent_id);
        return owner.has_value() && *owner == static_cast<std::size_t>(shard);
      };
      // The dead window: nothing is processed or delivered in either
      // direction -- exactly what the fleet observes of a crashed master.
      for (auto& enb : testbed_->enbs()) {
        if (targets_shard(*enb)) enb->set_control_down(true);
      }
      testbed_->sim().after(sim::from_seconds(event.duration_s), [this, targets_shard, shard] {
        // Heal the links first so the restarted master's incarnation
        // announcement reaches the fleet.
        for (auto& enb : testbed_->enbs()) {
          if (targets_shard(*enb)) enb->set_control_down(false);
        }
        auto& coord = testbed_->coordinator();
        for (std::size_t i = 0; i < coord.shard_count(); ++i) {
          if (shard < 0 || static_cast<std::size_t>(shard) == i) coord.shard(i).restart();
        }
      });
      break;
    }
    case FaultKind::shard_kill: {
      auto& coordinator = testbed_->coordinator();
      std::size_t adopted = 0;
      if (event.shard >= 0 &&
          static_cast<std::size_t>(event.shard) < coordinator.shard_count()) {
        adopted = coordinator.kill_shard(static_cast<std::size_t>(event.shard));
      }
      note(event, util::format("shard=%d adopted=%zu", event.shard, adopted));
      break;
    }
    case FaultKind::shard_drain: {
      auto& coordinator = testbed_->coordinator();
      util::Status status = util::Error::invalid_argument("no such shard");
      if (event.shard >= 0 &&
          static_cast<std::size_t>(event.shard) < coordinator.shard_count()) {
        status = coordinator.drain_shard(static_cast<std::size_t>(event.shard));
      }
      note(event, util::format("shard=%d %s", event.shard,
                               status.ok() ? "started"
                                           : ("rejected: " + status.error().message).c_str()));
      break;
    }
  }
}

}  // namespace flexran::scenario
