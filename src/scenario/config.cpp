#include "scenario/config.h"

#include <algorithm>
#include <map>
#include <memory>

#include "apps/remote_scheduler.h"
#include "scenario/obs_export.h"
#include "traffic/udp.h"
#include "util/strings.h"
#include "util/yaml_lite.h"
#include "verify/invariants.h"

namespace flexran::scenario {

namespace {

util::Result<double> read_double(const util::YamlNode& node, const char* key,
                                 double fallback) {
  const auto* value = node.find(key);
  if (value == nullptr) return fallback;
  return value->as_double();
}

util::Result<long long> read_int(const util::YamlNode& node, const char* key,
                                 long long fallback) {
  const auto* value = node.find(key);
  if (value == nullptr) return fallback;
  return value->as_int();
}

std::string read_string(const util::YamlNode& node, const char* key,
                        const std::string& fallback) {
  const auto* value = node.find(key);
  return value == nullptr ? fallback : value->as_string();
}

util::Result<FaultKind> parse_fault_kind(const std::string& name) {
  if (name == "partition") return FaultKind::partition;
  if (name == "heal") return FaultKind::heal;
  if (name == "delay_spike") return FaultKind::delay_spike;
  if (name == "corrupt") return FaultKind::corrupt;
  if (name == "duplicate") return FaultKind::duplicate;
  if (name == "crash") return FaultKind::crash;
  if (name == "restart") return FaultKind::restart;
  if (name == "flap") return FaultKind::flap;
  if (name == "vsf_crash") return FaultKind::vsf_crash;
  if (name == "vsf_overrun") return FaultKind::vsf_overrun;
  if (name == "vsf_invalid") return FaultKind::vsf_invalid;
  if (name == "report_flood") return FaultKind::report_flood;
  if (name == "master_crash") return FaultKind::master_crash;
  if (name == "shard_kill") return FaultKind::shard_kill;
  if (name == "reorder") return FaultKind::reorder;
  if (name == "shard_drain") return FaultKind::shard_drain;
  return util::Error::invalid_argument(
      "fault kind must be partition | heal | delay_spike | corrupt | duplicate | reorder | "
      "crash | restart | flap | vsf_crash | vsf_overrun | vsf_invalid | report_flood | "
      "master_crash | shard_kill | shard_drain");
}

}  // namespace

util::Result<ScenarioSpec> parse_scenario(const std::string& yaml) {
  auto doc = util::parse_yaml(yaml);
  if (!doc.ok()) return doc.error();
  const util::YamlNode& root = doc.value();
  ScenarioSpec spec;

  auto duration = read_double(root, "duration_s", spec.duration_s);
  if (!duration.ok()) return duration.error();
  spec.duration_s = *duration;
  if (spec.duration_s <= 0) return util::Error::invalid_argument("duration_s must be > 0");

  auto period = read_int(root, "stats_period_ttis", spec.stats_period_ttis);
  if (!period.ok()) return period.error();
  if (*period < 1) return util::Error::invalid_argument("stats_period_ttis must be >= 1");
  spec.stats_period_ttis = static_cast<std::uint32_t>(*period);

  auto seed = read_int(root, "seed", static_cast<long long>(spec.seed));
  if (!seed.ok()) return seed.error();
  if (*seed < 1) return util::Error::invalid_argument("seed must be >= 1");
  spec.seed = static_cast<std::uint64_t>(*seed);

  auto shards = read_int(root, "shards", static_cast<long long>(spec.shards));
  if (!shards.ok()) return shards.error();
  if (*shards < 1) return util::Error::invalid_argument("shards must be >= 1");
  spec.shards = static_cast<std::size_t>(*shards);

  auto stall = read_int(root, "shard_stall_cycles", spec.shard_stall_cycles);
  if (!stall.ok()) return stall.error();
  if (*stall < 0) return util::Error::invalid_argument("shard_stall_cycles must be >= 0");
  spec.shard_stall_cycles = *stall;

  spec.remote_scheduler = read_string(root, "remote_scheduler", "false") == "true";
  auto ahead = read_int(root, "schedule_ahead_sf", spec.schedule_ahead_sf);
  if (!ahead.ok()) return ahead.error();
  spec.schedule_ahead_sf = static_cast<int>(*ahead);

  auto agent_timeout = read_double(root, "agent_timeout_ms", spec.agent_timeout_ms);
  if (!agent_timeout.ok()) return agent_timeout.error();
  spec.agent_timeout_ms = *agent_timeout;
  auto disconnect_timeout =
      read_double(root, "agent_disconnect_timeout_ms", spec.agent_disconnect_timeout_ms);
  if (!disconnect_timeout.ok()) return disconnect_timeout.error();
  spec.agent_disconnect_timeout_ms = *disconnect_timeout;
  auto request_timeout = read_double(root, "request_timeout_ms", spec.request_timeout_ms);
  if (!request_timeout.ok()) return request_timeout.error();
  spec.request_timeout_ms = *request_timeout;

  auto ingest_messages = read_int(root, "ingest_max_messages", spec.ingest_max_messages);
  if (!ingest_messages.ok()) return ingest_messages.error();
  if (*ingest_messages < 0) {
    return util::Error::invalid_argument("ingest_max_messages must be >= 0");
  }
  spec.ingest_max_messages = *ingest_messages;
  auto ingest_bytes = read_int(root, "ingest_max_bytes", spec.ingest_max_bytes);
  if (!ingest_bytes.ok()) return ingest_bytes.error();
  if (*ingest_bytes < 0) return util::Error::invalid_argument("ingest_max_bytes must be >= 0");
  spec.ingest_max_bytes = *ingest_bytes;

  spec.observability = read_string(root, "observability", "false") == "true";
  auto metrics_period = read_double(root, "metrics_period_s", spec.metrics_period_s);
  if (!metrics_period.ok()) return metrics_period.error();
  if (*metrics_period <= 0) {
    return util::Error::invalid_argument("metrics_period_s must be > 0");
  }
  spec.metrics_period_s = *metrics_period;

  spec.master_recovery = read_string(root, "master_recovery", "false") == "true";
  auto resync_rate = read_double(root, "resync_tokens_per_s", spec.resync_tokens_per_s);
  if (!resync_rate.ok()) return resync_rate.error();
  if (*resync_rate < 0) {
    return util::Error::invalid_argument("resync_tokens_per_s must be >= 0");
  }
  spec.resync_tokens_per_s = *resync_rate;
  auto resync_burst = read_double(root, "resync_burst", spec.resync_burst);
  if (!resync_burst.ok()) return resync_burst.error();
  if (*resync_burst < 1) return util::Error::invalid_argument("resync_burst must be >= 1");
  spec.resync_burst = *resync_burst;
  auto retry_after = read_double(root, "resync_retry_after_ms", spec.resync_retry_after_ms);
  if (!retry_after.ok()) return retry_after.error();
  if (*retry_after < 0) {
    return util::Error::invalid_argument("resync_retry_after_ms must be >= 0");
  }
  spec.resync_retry_after_ms = *retry_after;
  auto quorum = read_double(root, "readiness_quorum", spec.readiness_quorum);
  if (!quorum.ok()) return quorum.error();
  if (*quorum <= 0 || *quorum > 1) {
    return util::Error::invalid_argument("readiness_quorum must be in (0, 1]");
  }
  spec.readiness_quorum = *quorum;
  auto readiness_timeout =
      read_double(root, "readiness_timeout_ms", spec.readiness_timeout_ms);
  if (!readiness_timeout.ok()) return readiness_timeout.error();
  if (*readiness_timeout < 0) {
    return util::Error::invalid_argument("readiness_timeout_ms must be >= 0");
  }
  spec.readiness_timeout_ms = *readiness_timeout;
  spec.warm_checkpoint = read_string(root, "warm_checkpoint", "false") == "true";
  auto ckpt_period = read_double(root, "checkpoint_period_s", spec.checkpoint_period_s);
  if (!ckpt_period.ok()) return ckpt_period.error();
  if (*ckpt_period <= 0) {
    return util::Error::invalid_argument("checkpoint_period_s must be > 0");
  }
  spec.checkpoint_period_s = *ckpt_period;

  spec.invariants = read_string(root, "invariants", spec.invariants);
  if (spec.invariants != "off" && spec.invariants != "log" && spec.invariants != "trap") {
    return util::Error::invalid_argument("invariants must be off | log | trap");
  }
  spec.defect = read_string(root, "defect", spec.defect);
  if (!spec.defect.empty() && spec.defect != "stale_composite") {
    return util::Error::invalid_argument("defect must be stale_composite (or omitted)");
  }

  const auto* enbs = root.find("enbs");
  if (enbs == nullptr || !enbs->is_sequence() || enbs->items().empty()) {
    return util::Error::invalid_argument("scenario needs a non-empty 'enbs' sequence");
  }
  for (const auto& item : enbs->items()) {
    ScenarioEnbSpec enb;
    auto id = read_int(item, "enb_id", static_cast<long long>(spec.enbs.size() + 1));
    if (!id.ok()) return id.error();
    enb.enb_id = static_cast<lte::EnbId>(*id);
    enb.name = read_string(item, "name", "enb-" + std::to_string(enb.enb_id));
    auto shard_pin = read_int(item, "shard", enb.shard);
    if (!shard_pin.ok()) return shard_pin.error();
    if (*shard_pin >= 0 && static_cast<std::size_t>(*shard_pin) >= spec.shards) {
      return util::Error::invalid_argument("enb shard pin " + std::to_string(*shard_pin) +
                                           " out of range for " + std::to_string(spec.shards) +
                                           " shards");
    }
    enb.shard = *shard_pin;
    enb.dl_scheduler = read_string(item, "dl_scheduler", enb.dl_scheduler);
    enb.ul_scheduler = read_string(item, "ul_scheduler", enb.ul_scheduler);
    auto delay = read_double(item, "control_delay_ms", 0.0);
    if (!delay.ok()) return delay.error();
    enb.control_delay_ms = *delay;
    auto fallback = read_int(item, "remote_fallback_ttis", enb.remote_fallback_ttis);
    if (!fallback.ok()) return fallback.error();
    if (*fallback < 0) {
      return util::Error::invalid_argument("remote_fallback_ttis must be >= 0");
    }
    enb.remote_fallback_ttis = *fallback;
    enb.fallback_scheduler = read_string(item, "fallback_scheduler", enb.fallback_scheduler);
    auto rate = read_double(item, "control_rate_mbps", enb.control_rate_mbps);
    if (!rate.ok()) return rate.error();
    if (*rate < 0) return util::Error::invalid_argument("control_rate_mbps must be >= 0");
    enb.control_rate_mbps = *rate;
    auto send_budget = read_int(item, "send_budget_bytes", enb.send_budget_bytes);
    if (!send_budget.ok()) return send_budget.error();
    if (*send_budget < 0) {
      return util::Error::invalid_argument("send_budget_bytes must be >= 0");
    }
    enb.send_budget_bytes = *send_budget;
    spec.enbs.push_back(std::move(enb));
  }

  const auto* ues = root.find("ues");
  if (ues != nullptr) {
    if (!ues->is_sequence()) return util::Error::invalid_argument("'ues' must be a sequence");
    for (const auto& item : ues->items()) {
      ScenarioUeSpec ue;
      auto enb_ref = read_int(item, "enb", 1);
      if (!enb_ref.ok()) return enb_ref.error();
      ue.enb = static_cast<lte::EnbId>(*enb_ref);
      const bool known = std::any_of(spec.enbs.begin(), spec.enbs.end(),
                                     [&](const auto& e) { return e.enb_id == ue.enb; });
      if (!known) {
        return util::Error::invalid_argument("UE references unknown enb " +
                                             std::to_string(ue.enb));
      }
      auto cqi = read_int(item, "cqi", ue.cqi);
      if (!cqi.ok()) return cqi.error();
      if (*cqi < 1 || *cqi > 15) return util::Error::invalid_argument("cqi must be in 1..15");
      ue.cqi = static_cast<int>(*cqi);
      auto ul_cqi = read_int(item, "ul_cqi", ue.ul_cqi);
      if (!ul_cqi.ok()) return ul_cqi.error();
      ue.ul_cqi = static_cast<int>(*ul_cqi);
      ue.traffic = read_string(item, "traffic", ue.traffic);
      if (ue.traffic != "full_buffer" && ue.traffic != "cbr" && ue.traffic != "none") {
        return util::Error::invalid_argument("traffic must be full_buffer | cbr | none");
      }
      auto rate = read_double(item, "rate_mbps", ue.rate_mbps);
      if (!rate.ok()) return rate.error();
      ue.rate_mbps = *rate;
      ue.ul_traffic = read_string(item, "ul_traffic", ue.ul_traffic);
      if (ue.ul_traffic != "full_buffer" && ue.ul_traffic != "cbr" && ue.ul_traffic != "none") {
        return util::Error::invalid_argument("ul_traffic must be full_buffer | cbr | none");
      }
      auto ul_rate = read_double(item, "ul_rate_mbps", ue.ul_rate_mbps);
      if (!ul_rate.ok()) return ul_rate.error();
      ue.ul_rate_mbps = *ul_rate;
      if (const auto* trace = item.find("cqi_trace"); trace != nullptr) {
        if (!trace->is_sequence()) {
          return util::Error::invalid_argument("cqi_trace must be a sequence");
        }
        for (const auto& sample : trace->items()) {
          auto v = sample.as_int();
          if (!v.ok()) return v.error();
          if (*v < 0 || *v > 15) return util::Error::invalid_argument("trace CQI in 0..15");
          ue.cqi_trace.push_back(static_cast<int>(*v));
        }
        auto trace_period = read_double(item, "cqi_trace_period_ms", ue.cqi_trace_period_ms);
        if (!trace_period.ok()) return trace_period.error();
        if (*trace_period <= 0) {
          return util::Error::invalid_argument("cqi_trace_period_ms must be > 0");
        }
        ue.cqi_trace_period_ms = *trace_period;
      }
      spec.ues.push_back(std::move(ue));
    }
  }

  const auto* faults = root.find("faults");
  if (faults != nullptr) {
    if (!faults->is_sequence()) {
      return util::Error::invalid_argument("'faults' must be a sequence");
    }
    for (const auto& item : faults->items()) {
      FaultEvent fault;
      auto at = read_double(item, "at_s", fault.at_s);
      if (!at.ok()) return at.error();
      if (*at < 0) return util::Error::invalid_argument("fault at_s must be >= 0");
      fault.at_s = *at;
      auto kind = parse_fault_kind(read_string(item, "kind", "partition"));
      if (!kind.ok()) return kind.error();
      fault.kind = *kind;
      auto enb = read_int(item, "enb", fault.enb);
      if (!enb.ok()) return enb.error();
      fault.enb = static_cast<int>(*enb);
      if (fault.enb >= 0 && static_cast<std::size_t>(fault.enb) >= spec.enbs.size()) {
        return util::Error::invalid_argument("fault references unknown enb index " +
                                             std::to_string(fault.enb));
      }
      auto duration = read_double(item, "duration_s", fault.duration_s);
      if (!duration.ok()) return duration.error();
      fault.duration_s = *duration;
      auto delay = read_double(item, "delay_ms", fault.delay_ms);
      if (!delay.ok()) return delay.error();
      fault.delay_ms = *delay;
      auto count = read_int(item, "count", fault.count);
      if (!count.ok()) return count.error();
      if (*count < 1) return util::Error::invalid_argument("fault count must be >= 1");
      fault.count = static_cast<int>(*count);
      auto fault_period = read_double(item, "period_s", fault.period_s);
      if (!fault_period.ok()) return fault_period.error();
      if (*fault_period <= 0) return util::Error::invalid_argument("period_s must be > 0");
      fault.period_s = *fault_period;
      auto fault_shard = read_int(item, "shard", fault.shard);
      if (!fault_shard.ok()) return fault_shard.error();
      if (*fault_shard >= 0 && static_cast<std::size_t>(*fault_shard) >= spec.shards) {
        return util::Error::invalid_argument("fault references unknown shard " +
                                             std::to_string(*fault_shard));
      }
      fault.shard = static_cast<int>(*fault_shard);
      if (fault.kind == FaultKind::shard_kill || fault.kind == FaultKind::shard_drain) {
        // -1 ("every shard") would orphan the whole fleet with nobody left
        // to adopt it; failover needs a survivor, so the target is explicit.
        if (fault.shard < 0) {
          return util::Error::invalid_argument(std::string(to_string(fault.kind)) +
                                               " needs an explicit shard");
        }
        if (spec.shards < 2) {
          return util::Error::invalid_argument(std::string(to_string(fault.kind)) +
                                               " needs shards >= 2");
        }
      }
      spec.faults.push_back(fault);
    }
  }
  return spec;
}

ScenarioRunSummary run_scenario(const ScenarioSpec& spec) {
  ctrl::MasterConfig master_config = per_tti_master_config(spec.stats_period_ttis);
  master_config.agent_timeout_us = sim::from_ms(spec.agent_timeout_ms);
  master_config.agent_disconnect_timeout_us = sim::from_ms(spec.agent_disconnect_timeout_ms);
  master_config.request_timeout_us = sim::from_ms(spec.request_timeout_ms);
  master_config.overload.ingest.max_messages =
      static_cast<std::uint64_t>(spec.ingest_max_messages);
  master_config.overload.ingest.max_bytes = static_cast<std::uint64_t>(spec.ingest_max_bytes);
  master_config.obs.enabled = spec.observability;
  if (spec.master_recovery) {
    master_config.recovery.enabled = true;
    master_config.recovery.resync_tokens_per_s = spec.resync_tokens_per_s;
    master_config.recovery.resync_burst = spec.resync_burst;
    master_config.recovery.resync_retry_after_ms = spec.resync_retry_after_ms;
    master_config.recovery.readiness_quorum = spec.readiness_quorum;
    master_config.recovery.readiness_timeout_us = sim::from_ms(spec.readiness_timeout_ms);
    if (spec.warm_checkpoint) {
      // An in-memory sink survives the in-place restart (the scenario's
      // "process" is the Testbed) and keeps scenario runs hermetic.
      master_config.recovery.checkpoint_sink = std::make_shared<ctrl::MemoryCheckpointSink>();
      master_config.recovery.checkpoint_period_us = sim::from_seconds(spec.checkpoint_period_s);
    }
  }
  Testbed testbed(std::move(master_config), spec.shards);
  if (spec.shard_stall_cycles > 0) {
    testbed.coordinator().set_shard_stall_cycles(spec.shard_stall_cycles);
  }
  if (spec.remote_scheduler) {
    // The centralized scheduler works one shard's agents on that shard's
    // task manager: one instance per shard, not a composite app.
    for (std::size_t i = 0; i < testbed.coordinator().shard_count(); ++i) {
      apps::RemoteSchedulerConfig config;
      config.schedule_ahead_sf = spec.schedule_ahead_sf;
      testbed.coordinator().shard(i).add_app(
          std::make_unique<apps::RemoteSchedulerApp>(config));
    }
  }

  std::map<lte::EnbId, std::size_t> enb_index;
  for (const auto& enb_spec : spec.enbs) {
    EnbSpec out;
    out.enb.enb_id = enb_spec.enb_id;
    out.enb.cells[0].cell_id = enb_spec.enb_id;
    out.agent.name = enb_spec.name;
    out.agent.dl_scheduler = spec.remote_scheduler ? "remote" : enb_spec.dl_scheduler;
    out.agent.ul_scheduler = enb_spec.ul_scheduler;
    out.agent.remote_fallback_ttis = enb_spec.remote_fallback_ttis;
    out.agent.fallback_scheduler = enb_spec.fallback_scheduler;
    if (enb_spec.shard >= 0) out.shard = static_cast<std::size_t>(enb_spec.shard);
    out.seed = spec.seed + testbed.enbs().size();
    out.uplink.delay = sim::from_ms(enb_spec.control_delay_ms);
    out.downlink.delay = sim::from_ms(enb_spec.control_delay_ms);
    if (enb_spec.control_rate_mbps > 0) {
      out.uplink.rate_bps = static_cast<std::int64_t>(enb_spec.control_rate_mbps * 1e6);
    }
    enb_index[enb_spec.enb_id] = testbed.enbs().size();
    auto& enb = testbed.add_enb(out);
    if (enb_spec.send_budget_bytes > 0) {
      net::QueueBudget budget;
      budget.max_bytes = static_cast<std::uint64_t>(enb_spec.send_budget_bytes);
      enb.agent_side->set_send_budget(budget);
    }
  }

  struct LiveUe {
    lte::EnbId enb;
    std::size_t index;
    lte::Rnti rnti;
  };
  std::vector<LiveUe> live;
  std::vector<std::unique_ptr<traffic::UdpCbrSource>> sources;
  int stagger = 2;
  for (const auto& ue_spec : spec.ues) {
    const auto index = enb_index.at(ue_spec.enb);
    stack::UeProfile profile;
    if (ue_spec.cqi_trace.empty()) {
      profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(ue_spec.cqi);
    } else {
      profile.dl_channel = std::make_unique<phy::TraceCqiChannel>(
          ue_spec.cqi_trace, sim::from_ms(ue_spec.cqi_trace_period_ms), /*loop=*/true);
    }
    profile.ul_cqi = ue_spec.ul_cqi;
    profile.attach_after_ttis = stagger++;
    const auto rnti = testbed.add_ue(index, std::move(profile));
    live.push_back({ue_spec.enb, index, rnti});

    if (ue_spec.ul_traffic == "full_buffer") {
      auto* dp = testbed.enb(index).data_plane.get();
      testbed.on_tti([dp, rnti](std::int64_t) {
        const auto* ue = dp->ue(rnti);
        if (ue != nullptr && ue->connected() && ue->ul_buffer_bytes < 30'000) {
          dp->enqueue_ul(rnti, 30'000);
        }
      });
    } else if (ue_spec.ul_traffic == "cbr") {
      auto* dp = testbed.enb(index).data_plane.get();
      sources.push_back(std::make_unique<traffic::UdpCbrSource>(
          testbed.sim(), [dp, rnti](std::uint32_t bytes) { dp->enqueue_ul(rnti, bytes); },
          ue_spec.ul_rate_mbps));
      sources.back()->start();
    }

    if (ue_spec.traffic == "full_buffer") {
      auto* dp = testbed.enb(index).data_plane.get();
      testbed.on_tti([&testbed, dp, rnti](std::int64_t) {
        const auto* ue = dp->ue(rnti);
        if (ue != nullptr && ue->dl_queue.total_bytes() < 60'000) {
          (void)testbed.epc().downlink(rnti, 60'000);
        }
      });
    } else if (ue_spec.traffic == "cbr") {
      sources.push_back(std::make_unique<traffic::UdpCbrSource>(
          testbed.sim(),
          [&testbed, rnti](std::uint32_t bytes) { (void)testbed.epc().downlink(rnti, bytes); },
          ue_spec.rate_mbps));
      sources.back()->start();
    }
  }

  FaultInjector injector(testbed);
  injector.schedule_all(spec.faults);

  // Runtime verification (docs/chaos_fuzzing.md): the monitor re-checks the
  // control plane's safety invariants after every coordinator cycle. All
  // eNodeBs exist by now, so the I6 quarantine probes can bind directly to
  // each agent's VsfGuard counter.
  std::unique_ptr<verify::InvariantMonitor> monitor;
  if (spec.invariants != "off") {
    auto mode = verify::parse_mode(spec.invariants);
    monitor = std::make_unique<verify::InvariantMonitor>(
        testbed.coordinator(), mode.ok() ? *mode : verify::Mode::log);
    for (std::size_t i = 0; i < testbed.enbs().size(); ++i) {
      const auto* guard = &testbed.enbs()[i]->agent->vsf_guard();
      monitor->add_quarantine_probe(
          "enb" + std::to_string(i),
          [guard] { return guard->quarantined_invocations(); });
    }
    monitor->install();
  }
  if (spec.defect == "stale_composite") {
    // Self-check defect: composite-cache invalidation removed. The monitor
    // must catch the resulting stale union (I3).
    testbed.coordinator().set_fault_stale_composite(true);
  }

  ScenarioRunSummary summary;
  summary.observability = spec.observability;
  obs::MetricsRegistry::Registration testbed_collector;
  if (spec.observability) {
    // Bridge the agent/link counters into the master's registry and collect
    // a JSON dump every metrics period. The collector unregisters when this
    // function returns, before the testbed is torn down.
    testbed_collector = add_testbed_collector(testbed);
    const auto period_ttis =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(spec.metrics_period_s * 1000.0));
    testbed.on_tti([&testbed, &summary, period_ttis](std::int64_t tti) {
      if (tti % period_ttis == 0) {
        summary.metrics_json.push_back(
            testbed.coordinator().metrics().json(testbed.sim().now()));
      }
    });
  }

  testbed.run_seconds(spec.duration_s);

  if (spec.observability) {
    summary.metrics_json.push_back(testbed.coordinator().metrics().json(testbed.sim().now()));
    summary.metrics_prometheus = testbed.coordinator().metrics().prometheus_text();
    summary.metrics_block = format_metrics_block(testbed);
  }
  summary.duration_s = spec.duration_s;
  for (const auto& ue : live) {
    UeRunResult result;
    result.enb = ue.enb;
    result.rnti = ue.rnti;
    const auto* context = testbed.enb(ue.index).data_plane->ue(ue.rnti);
    result.connected = context != nullptr && context->connected();
    result.cqi = context != nullptr ? context->reported_cqi : 0;
    result.dl_mbps = Metrics::mbps(
        testbed.metrics().total_bytes(ue.enb, ue.rnti, lte::Direction::downlink),
        spec.duration_s);
    result.ul_mbps = Metrics::mbps(
        testbed.metrics().total_bytes(ue.enb, ue.rnti, lte::Direction::uplink),
        spec.duration_s);
    summary.ues.push_back(result);
  }
  const auto& coordinator = testbed.coordinator();
  summary.master_cycles = coordinator.cycles_run();
  summary.fleet = coordinator.stats();
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  for (auto& enb : testbed.enbs()) {
    up_bytes += enb->agent->tx_accounting().total_bytes();
    down_bytes += coordinator.tx_accounting(enb->agent_id).total_bytes();
  }
  summary.uplink_signaling_mbps = Metrics::mbps(up_bytes, spec.duration_s);
  summary.downlink_signaling_mbps = Metrics::mbps(down_bytes, spec.duration_s);
  summary.faults_injected = injector.faults_injected();
  for (auto& enb : testbed.enbs()) {
    ++summary.agents_total;
    const auto* node = coordinator.find_agent(enb->agent_id);
    if (node != nullptr) {
      summary.agent_reconnects += node->reconnects;
      if (node->state == ctrl::SessionState::up) ++summary.agents_up;
    }
  }
  for (auto& enb : testbed.enbs()) {
    const auto& guard = enb->agent->vsf_guard();
    summary.vsf_failures += guard.vsf_failures();
    summary.vsf_quarantines += guard.quarantines();
    summary.vsf_fallback_decisions += guard.fallback_decisions();
    summary.unscheduled_slots += guard.unscheduled_slots();
    const std::string impl = enb->agent->mac().active_implementation(
        agent::MacControlModule::kDlSchedulerSlot);
    if (!impl.empty() &&
        !enb->agent->vsf_cache().is_quarantined(agent::MacControlModule::kName,
                                                agent::MacControlModule::kDlSchedulerSlot,
                                                impl)) {
      ++summary.agents_on_valid_policy;
    }
  }
  summary.overload_state = coordinator.overload_state();
  summary.recovering_at_end = coordinator.any_recovering();
  summary.time_to_ready_ms = sim::to_seconds(coordinator.last_recovery_duration()) * 1e3;
  for (auto& enb : testbed.enbs()) {
    summary.fenced_incarnation_messages += enb->agent->fenced_incarnation_messages();
  }
  for (auto& enb : testbed.enbs()) summary.links.push_back({enb->uplink(), enb->downlink()});
  summary.shards = coordinator.shard_count();
  if (summary.shards > 1) {
    for (std::size_t i = 0; i < summary.shards; ++i) {
      const auto& core = coordinator.shard(i);
      summary.shard_summaries.push_back({core.rib().agents().size(), core.stats(),
                                         core.overload_state(), core.recovering(),
                                         coordinator.shard_health(i)});
    }
  }
  summary.failover = coordinator.failover_stats();
  if (monitor != nullptr) {
    summary.invariant_checks = monitor->checks_run();
    summary.invariant_violations = monitor->violations_total();
    summary.invariant_details = monitor->violation_summaries(8);
  }
  return summary;
}

std::string format_summary(const ScenarioRunSummary& summary) {
  const ctrl::ShardStats& fleet = summary.fleet;
  std::string out = util::format("%-6s %-8s %-10s %6s %12s %12s\n", "enb", "rnti", "state",
                                 "CQI", "DL (Mb/s)", "UL (Mb/s)");
  for (const auto& ue : summary.ues) {
    out += util::format("%-6u %-8u %-10s %6d %12.2f %12.2f\n", ue.enb, ue.rnti,
                        ue.connected ? "connected" : "DETACHED", ue.cqi, ue.dl_mbps, ue.ul_mbps);
  }
  out += util::format(
      "\nmaster: %lld cycles, %llu RIB updates; signaling up %.3f Mb/s / down %.3f Mb/s "
      "over %.1f s\n",
      static_cast<long long>(summary.master_cycles),
      static_cast<unsigned long long>(fleet.updates_applied), summary.uplink_signaling_mbps,
      summary.downlink_signaling_mbps, summary.duration_s);
  if (summary.faults_injected > 0) {
    out += util::format(
        "chaos: %llu faults, %u agent reconnects, %llu retries, %llu failed requests, "
        "%llu fenced updates; %d/%d agents re-synced\n",
        static_cast<unsigned long long>(summary.faults_injected), summary.agent_reconnects,
        static_cast<unsigned long long>(fleet.requests_retried),
        static_cast<unsigned long long>(fleet.requests_failed),
        static_cast<unsigned long long>(fleet.fenced_updates), summary.agents_up,
        summary.agents_total);
  }
  if (summary.vsf_failures > 0 || summary.vsf_quarantines > 0 || fleet.policy_rollbacks > 0) {
    out += util::format(
        "containment: %llu VSF failures, %llu quarantines, %llu fallback decisions, "
        "%llu rollbacks, %llu unscheduled TTIs; %d/%d agents on valid policy\n",
        static_cast<unsigned long long>(summary.vsf_failures),
        static_cast<unsigned long long>(summary.vsf_quarantines),
        static_cast<unsigned long long>(summary.vsf_fallback_decisions),
        static_cast<unsigned long long>(fleet.policy_rollbacks),
        static_cast<unsigned long long>(summary.unscheduled_slots),
        summary.agents_on_valid_policy, summary.agents_total);
  }
  if (fleet.overload_transitions > 0 || fleet.ingest_shed() > 0 || fleet.ingest_coalesced() > 0) {
    out += util::format(
        "overload: state=%s, %llu transitions; ingest shed %llu / coalesced %llu, "
        "peak queue %llu msgs / %llu bytes; %llu throttle renegotiations, "
        "%llu saturated updater cycles\n",
        ctrl::to_string(summary.overload_state),
        static_cast<unsigned long long>(fleet.overload_transitions),
        static_cast<unsigned long long>(fleet.ingest_shed()),
        static_cast<unsigned long long>(fleet.ingest_coalesced()),
        static_cast<unsigned long long>(fleet.ingest_peak_messages),
        static_cast<unsigned long long>(fleet.ingest_peak_bytes),
        static_cast<unsigned long long>(fleet.throttle_renegotiations),
        static_cast<unsigned long long>(fleet.updater_saturations));
  }
  if (fleet.master_restarts > 0) {
    out += util::format(
        "recovery: %llu master restarts, ready in %.1f ms (%s); %llu paced re-syncs, "
        "%llu commands held, %llu incarnation-fenced messages, %llu checkpoints, "
        "%llu policies re-pushed\n",
        static_cast<unsigned long long>(fleet.master_restarts), summary.time_to_ready_ms,
        summary.recovering_at_end ? "STILL RECOVERING" : "recovered",
        static_cast<unsigned long long>(fleet.resyncs_paced),
        static_cast<unsigned long long>(fleet.commands_held),
        static_cast<unsigned long long>(summary.fenced_incarnation_messages),
        static_cast<unsigned long long>(fleet.checkpoints_saved),
        static_cast<unsigned long long>(fleet.policies_repushed));
  }
  const ctrl::FailoverStats& failover = summary.failover;
  if (failover.shards_failed > 0 || failover.agents_drained > 0) {
    out += util::format(
        "failover: %llu shards failed, %llu adopted (%llu warm / %llu cold), "
        "%llu drained, %llu orphaned, %llu still pending; orphan window %.1f ms, "
        "adopted up in %.1f ms\n",
        static_cast<unsigned long long>(failover.shards_failed),
        static_cast<unsigned long long>(failover.agents_adopted),
        static_cast<unsigned long long>(failover.warm_adoptions),
        static_cast<unsigned long long>(failover.cold_adoptions),
        static_cast<unsigned long long>(failover.agents_drained),
        static_cast<unsigned long long>(failover.agents_orphaned),
        static_cast<unsigned long long>(failover.failover_pending),
        sim::to_seconds(static_cast<sim::TimeUs>(failover.orphan_window_us)) * 1e3,
        sim::to_seconds(static_cast<sim::TimeUs>(failover.failover_duration_us)) * 1e3);
  }
  if (summary.invariant_checks > 0) {
    out += util::format("invariants: %llu checks, %llu violations%s\n",
                        static_cast<unsigned long long>(summary.invariant_checks),
                        static_cast<unsigned long long>(summary.invariant_violations),
                        summary.invariant_violations == 0 ? " (clean)" : "");
    for (const auto& detail : summary.invariant_details) {
      out += "  ! " + detail + "\n";
    }
  }
  for (std::size_t i = 0; i < summary.shard_summaries.size(); ++i) {
    const auto& shard = summary.shard_summaries[i];
    const bool alive = shard.health == ctrl::Coordinator::ShardHealth::alive;
    out += util::format(
        "shard %zu: %zu agents, %llu RIB updates, %llu shed, %llu restarts, state=%s%s%s\n", i,
        shard.agents, static_cast<unsigned long long>(shard.stats.updates_applied),
        static_cast<unsigned long long>(shard.stats.ingest_shed()),
        static_cast<unsigned long long>(shard.stats.master_restarts),
        ctrl::to_string(shard.overload_state), shard.recovering ? " (RECOVERING)" : "",
        alive ? "" : util::format(" [%s]", ctrl::to_string(shard.health)).c_str());
  }
  for (std::size_t i = 0; i < summary.links.size(); ++i) {
    const auto& link = summary.links[i];
    out += util::format(
        "link %zu: up tx %llu rx %llu dropped %llu shed %llu | "
        "down tx %llu rx %llu dropped %llu shed %llu\n",
        i, static_cast<unsigned long long>(link.uplink.tx),
        static_cast<unsigned long long>(link.uplink.rx),
        static_cast<unsigned long long>(link.uplink.dropped),
        static_cast<unsigned long long>(link.uplink.shed),
        static_cast<unsigned long long>(link.downlink.tx),
        static_cast<unsigned long long>(link.downlink.rx),
        static_cast<unsigned long long>(link.downlink.dropped),
        static_cast<unsigned long long>(link.downlink.shed));
  }
  if (!summary.metrics_block.empty()) out += summary.metrics_block;
  return out;
}

std::string scenario_to_yaml(const ScenarioSpec& spec) {
  // Every scalar is emitted unconditionally (the parser accepts defaults
  // back), except fields whose empty/unset form has no YAML spelling.
  // %.3f quantizes times to 1 ms / rates to 1 kb/s -- the fuzzer only
  // generates values on that grid, so parse(emit(spec)) is exact.
  std::string out;
  out += util::format("duration_s: %.3f\n", spec.duration_s);
  out += util::format("stats_period_ttis: %u\n", spec.stats_period_ttis);
  out += util::format("seed: %llu\n", static_cast<unsigned long long>(spec.seed));
  out += util::format("shards: %zu\n", spec.shards);
  out += util::format("shard_stall_cycles: %lld\n",
                      static_cast<long long>(spec.shard_stall_cycles));
  out += util::format("remote_scheduler: %s\n", spec.remote_scheduler ? "true" : "false");
  out += util::format("schedule_ahead_sf: %d\n", spec.schedule_ahead_sf);
  out += util::format("agent_timeout_ms: %.3f\n", spec.agent_timeout_ms);
  out += util::format("agent_disconnect_timeout_ms: %.3f\n",
                      spec.agent_disconnect_timeout_ms);
  out += util::format("request_timeout_ms: %.3f\n", spec.request_timeout_ms);
  out += util::format("ingest_max_messages: %lld\n",
                      static_cast<long long>(spec.ingest_max_messages));
  out += util::format("ingest_max_bytes: %lld\n",
                      static_cast<long long>(spec.ingest_max_bytes));
  out += util::format("observability: %s\n", spec.observability ? "true" : "false");
  out += util::format("metrics_period_s: %.3f\n", spec.metrics_period_s);
  out += util::format("master_recovery: %s\n", spec.master_recovery ? "true" : "false");
  out += util::format("resync_tokens_per_s: %.3f\n", spec.resync_tokens_per_s);
  out += util::format("resync_burst: %.3f\n", spec.resync_burst);
  out += util::format("resync_retry_after_ms: %.3f\n", spec.resync_retry_after_ms);
  out += util::format("readiness_quorum: %.3f\n", spec.readiness_quorum);
  out += util::format("readiness_timeout_ms: %.3f\n", spec.readiness_timeout_ms);
  out += util::format("warm_checkpoint: %s\n", spec.warm_checkpoint ? "true" : "false");
  out += util::format("checkpoint_period_s: %.3f\n", spec.checkpoint_period_s);
  out += util::format("invariants: %s\n", spec.invariants.c_str());
  if (!spec.defect.empty()) out += util::format("defect: %s\n", spec.defect.c_str());
  out += "enbs:\n";
  for (const auto& enb : spec.enbs) {
    out += util::format("  - enb_id: %u\n", static_cast<unsigned>(enb.enb_id));
    out += util::format("    name: %s\n", enb.name.c_str());
    if (enb.shard >= 0) out += util::format("    shard: %lld\n",
                                            static_cast<long long>(enb.shard));
    out += util::format("    dl_scheduler: %s\n", enb.dl_scheduler.c_str());
    out += util::format("    ul_scheduler: %s\n", enb.ul_scheduler.c_str());
    out += util::format("    control_delay_ms: %.3f\n", enb.control_delay_ms);
    out += util::format("    remote_fallback_ttis: %lld\n",
                        static_cast<long long>(enb.remote_fallback_ttis));
    out += util::format("    fallback_scheduler: %s\n", enb.fallback_scheduler.c_str());
    out += util::format("    control_rate_mbps: %.3f\n", enb.control_rate_mbps);
    out += util::format("    send_budget_bytes: %lld\n",
                        static_cast<long long>(enb.send_budget_bytes));
  }
  if (!spec.ues.empty()) {
    out += "ues:\n";
    for (const auto& ue : spec.ues) {
      out += util::format("  - enb: %u\n", static_cast<unsigned>(ue.enb));
      out += util::format("    cqi: %d\n", ue.cqi);
      out += util::format("    ul_cqi: %d\n", ue.ul_cqi);
      out += util::format("    traffic: %s\n", ue.traffic.c_str());
      out += util::format("    rate_mbps: %.3f\n", ue.rate_mbps);
      out += util::format("    ul_traffic: %s\n", ue.ul_traffic.c_str());
      out += util::format("    ul_rate_mbps: %.3f\n", ue.ul_rate_mbps);
      if (!ue.cqi_trace.empty()) {
        out += "    cqi_trace:\n";
        for (int sample : ue.cqi_trace) out += util::format("      - %d\n", sample);
        out += util::format("    cqi_trace_period_ms: %.3f\n", ue.cqi_trace_period_ms);
      }
    }
  }
  if (!spec.faults.empty()) {
    out += "faults:\n";
    for (const auto& fault : spec.faults) {
      out += util::format("  - at_s: %.3f\n", fault.at_s);
      out += util::format("    kind: %s\n", to_string(fault.kind));
      out += util::format("    enb: %d\n", fault.enb);
      out += util::format("    duration_s: %.3f\n", fault.duration_s);
      out += util::format("    delay_ms: %.3f\n", fault.delay_ms);
      out += util::format("    count: %d\n", fault.count);
      out += util::format("    period_s: %.3f\n", fault.period_s);
      out += util::format("    shard: %d\n", fault.shard);
    }
  }
  return out;
}

}  // namespace flexran::scenario
