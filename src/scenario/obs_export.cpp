#include "scenario/obs_export.h"

#include <tuple>

#include "util/strings.h"

namespace flexran::scenario {

namespace {

void collect_testbed(Testbed& testbed, obs::Sink& out) {
  for (std::size_t i = 0; i < testbed.enbs().size(); ++i) {
    const Testbed::Enb& enb = *testbed.enbs()[i];
    const agent::Agent& agent = *enb.agent;
    const std::string id = std::to_string(enb.agent_id);
    // Agent-side signaling accountants -- the far end of the master's
    // signaling_{tx,rx} series; equality across the pair is the rx-parity
    // invariant the accounting tests assert.
    for (const proto::MessageCategory category : proto::kAllCategories) {
      const char* cat = proto::to_string(category);
      out.value("agent_signaling_tx_bytes", {{"agent", id}, {"category", cat}},
                static_cast<double>(agent.tx_accounting().bytes(category)));
      out.value("agent_signaling_rx_bytes", {{"agent", id}, {"category", cat}},
                static_cast<double>(agent.rx_accounting().bytes(category)));
    }
    out.value("agent_messages_received", {{"agent", id}},
              static_cast<double>(agent.messages_received()));
    out.value("agent_fenced_messages", {{"agent", id}},
              static_cast<double>(agent.fenced_messages()));
    out.value("agent_reconnect_attempts", {{"agent", id}},
              static_cast<double>(agent.reconnect_attempts()));
    out.value("agent_missed_deadlines", {{"agent", id}},
              static_cast<double>(agent.missed_deadline_decisions()));
    out.value("agent_queued_decisions", {{"agent", id}},
              static_cast<double>(agent.queued_decisions()));

    // Control-link frame counters (SimTransport), uplink = agent -> master.
    const std::string link = std::to_string(i);
    for (const auto& [dir, frames, tx_end] :
         {std::tuple{"up", enb.uplink(), enb.agent_side},
          std::tuple{"down", enb.downlink(), enb.master_side}}) {
      out.value("link_frames_tx", {{"link", link}, {"dir", dir}}, static_cast<double>(frames.tx));
      out.value("link_frames_rx", {{"link", link}, {"dir", dir}}, static_cast<double>(frames.rx));
      out.value("link_frames_dropped", {{"link", link}, {"dir", dir}},
                static_cast<double>(frames.dropped));
      out.value("link_frames_shed", {{"link", link}, {"dir", dir}},
                static_cast<double>(frames.shed));
      out.value("link_frames_corrupted", {{"link", link}, {"dir", dir}},
                static_cast<double>(frames.corrupted));
      for (const net::TrafficClass cls : net::kAllTrafficClasses) {
        out.value("link_frames_shed_class",
                  {{"link", link}, {"dir", dir}, {"class", net::to_string(cls)}},
                  static_cast<double>(tx_end->frames_shed(cls)));
      }
    }
  }
}

}  // namespace

obs::MetricsRegistry::Registration add_testbed_collector(Testbed& testbed) {
  // The coordinator's registry: shard 0's own on a single-shard testbed,
  // the shared process-wide one when sharded. Agent ids and link indices
  // are globally unique either way.
  return testbed.coordinator().metrics().add_collector(
      [&testbed](obs::Sink& out) { collect_testbed(testbed, out); });
}

std::string format_metrics_block(Testbed& testbed) {
  auto& coordinator = testbed.coordinator();
  const auto cycles = testbed.master().task_manager().stages().updater.count();
  std::string out = util::format("metrics: %zu series, %llu cycles traced\n",
                                 coordinator.metrics().size(),
                                 static_cast<unsigned long long>(cycles));
  for (std::size_t i = 0; i < coordinator.shard_count(); ++i) {
    const ctrl::CycleStages& stages = coordinator.shard(i).task_manager().stages();
    out += util::format(
        "  %scycle us (mean/max): updater %.1f/%.1f, events %.1f/%.1f, apps %.1f/%.1f, "
        "flush %.1f/%.1f\n",
        coordinator.shard_count() > 1 ? util::format("shard %zu ", i).c_str() : "",
        stages.updater.mean(), stages.updater.max(), stages.event.mean(), stages.event.max(),
        stages.apps.mean(), stages.apps.max(), stages.flush.mean(), stages.flush.max());
  }
  for (auto& enb : testbed.enbs()) {
    const auto* latency = coordinator.control_latency(enb->agent_id);
    if (latency == nullptr || latency->count() == 0) continue;
    out += util::format(
        "  control latency agent %u: p50 %.0f us, p95 %.0f us, p99 %.0f us (%llu samples)\n",
        static_cast<unsigned>(enb->agent_id), latency->p50(), latency->p95(), latency->p99(),
        static_cast<unsigned long long>(latency->count()));
  }
  std::string tx_part;
  std::string rx_part;
  for (const proto::MessageCategory category : proto::kAllCategories) {
    std::uint64_t tx = 0;
    std::uint64_t rx = 0;
    for (auto& enb : testbed.enbs()) {
      tx += coordinator.tx_accounting(enb->agent_id).bytes(category);
      rx += coordinator.rx_accounting(enb->agent_id).bytes(category);
    }
    tx_part += util::format(" %s %llu", proto::to_string(category),
                            static_cast<unsigned long long>(tx));
    rx_part += util::format(" %s %llu", proto::to_string(category),
                            static_cast<unsigned long long>(rx));
  }
  out += "  signaling bytes tx (master->agent):" + tx_part + "\n";
  out += "  signaling bytes rx (agent->master):" + rx_part + "\n";
  return out;
}

}  // namespace flexran::scenario
