// Testbed: the paper's experimental setup in a box. Wires a master
// controller to N agent-enabled eNodeBs over configurable control links
// inside one discrete-event simulation, with a shared radio environment,
// an EPC stub, and metrics. Every test, example and benchmark builds on
// this.
//
// Per-TTI ordering (TtiTicker priorities):
//   10+i  eNodeB i subframe_begin  (HARQ feedback, attach FSM, CQI
//         sampling, agent VSFs run, decisions applied)
//   500   master task-manager cycle (real-time mode)
//   800+i eNodeB i subframe_end    (channel stamping, PF averages)
//   900   metrics window sampling + per-TTI user hooks
// Control messages sent during a tick are delivered in separate simulator
// events (>= link latency later), so even a zero-latency channel gives the
// one-TTI pipeline a real deployment has.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "agent/agent.h"
#include "controller/coordinator.h"
#include "net/sim_transport.h"
#include "phy/radio_env.h"
#include "scenario/metrics.h"
#include "sim/simulator.h"
#include "stack/enodeb.h"
#include "stack/epc.h"

namespace flexran::scenario {

struct EnbSpec {
  lte::EnbConfig enb;
  agent::AgentConfig agent;
  /// Agent -> master link.
  sim::LinkConfig uplink;
  /// Master -> agent link.
  sim::LinkConfig downlink;
  /// Attach the cell to the shared interference environment.
  bool use_radio_env = false;
  std::uint64_t seed = 1;
  /// Pin the agent to this shard instead of hash placement
  /// (docs/sharded_control.md). Ignored on a single-shard testbed.
  std::optional<std::size_t> shard;
};

/// One direction of a control link's frame counters: frames the sending
/// end put on the wire, dropped, shed or corrupted, and frames the far end
/// took in.
struct LinkCounters {
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t corrupted = 0;
};

class Testbed {
 public:
  struct Enb {
    std::unique_ptr<stack::EnodebDataPlane> data_plane;
    std::unique_ptr<agent::Agent> agent;
    net::SimTransport* master_side = nullptr;  // owned by transports below
    net::SimTransport* agent_side = nullptr;
    ctrl::AgentId agent_id = 0;
    net::SimTransportPair transports;

    /// Runtime latency control, both directions (netem equivalent).
    void set_control_latency(sim::TimeUs one_way) {
      master_side->set_delay(one_way);
      agent_side->set_delay(one_way);
    }
    /// Partitions (or heals) the control channel in both directions.
    void set_control_down(bool down) {
      master_side->set_down(down);
      agent_side->set_down(down);
    }
    /// Simulates an agent process crash: the session ends and all
    /// session-scoped agent state is lost. Nothing reconnects until
    /// restart_agent().
    void crash_agent() { agent->disconnect(); }
    /// Restarts a crashed agent: reconnects through the reconnect provider
    /// (new session epoch), backing off while the channel is partitioned.
    void restart_agent() { agent->schedule_reconnect(); }
    /// Control-link frame counters: uplink = agent -> master.
    LinkCounters uplink() const;
    LinkCounters downlink() const;
  };

  /// `shards` > 1 builds a two-tier control plane (docs/sharded_control.md):
  /// `master_config` becomes the per-shard template and agents are placed
  /// by a stable hash of their enb_id (or an EnbSpec::shard pin). The
  /// default single shard is exactly the classic monolithic master.
  explicit Testbed(ctrl::MasterConfig master_config = {}, std::size_t shards = 1);

  Enb& add_enb(EnbSpec spec);

  sim::Simulator& sim() { return sim_; }
  /// Shard 0's core -- with the default single shard, *the* master.
  /// Single-shard tests/examples keep reading the control plane here;
  /// multi-shard code goes through coordinator().
  ctrl::ShardCore& master() { return coordinator_.shard(0); }
  ctrl::Coordinator& coordinator() { return coordinator_; }
  stack::EpcStub& epc() { return epc_; }
  Metrics& metrics() { return metrics_; }
  std::vector<std::unique_ptr<Enb>>& enbs() { return enbs_; }
  Enb& enb(std::size_t index) { return *enbs_.at(index); }

  /// Registers a per-TTI hook (runs at priority 900, after everything).
  void on_tti(std::function<void(std::int64_t)> fn) { tti_hooks_.push_back(std::move(fn)); }

  /// Adds a delivery listener for eNodeB `enb_index` (metrics always get the
  /// bytes too). Used by traffic models needing per-UE feedback (TCP, DASH).
  void add_delivery_listener(std::size_t enb_index, stack::EnodebDataPlane::DeliveryFn fn) {
    delivery_listeners_.at(enb_index).push_back(std::move(fn));
  }

  /// Convenience UE creation: adds the UE to eNodeB `enb_index`, registers
  /// its EPC bearer under UE id == returned RNTI, and wires delivery into
  /// the metrics. The testbed assigns RNTIs that are unique across ALL its
  /// eNodeBs (real RNTIs are only cell-unique; global uniqueness keeps the
  /// EPC bearer keys and metrics unambiguous). Returns the RNTI.
  lte::Rnti add_ue(std::size_t enb_index, stack::UeProfile profile);

  /// Enables X2-equivalent handover orchestration: when any agent executes
  /// a handover, the detached UE context is re-established at the eNodeB
  /// owning the target cell (fresh RNTI), and the EPC bearer path is
  /// switched. Applies to eNodeBs added before and after the call.
  void enable_x2();
  /// Where a UE (identified by its stable UE id, the RNTI add_ue returned)
  /// currently lives. nullopt if released.
  struct UeLocation {
    std::size_t enb_index = 0;
    lte::Rnti rnti = lte::kInvalidRnti;
  };
  std::optional<UeLocation> locate_ue(lte::Rnti ue_id) const;
  /// Delivered bytes for a UE id across all cells it visited.
  std::uint64_t ue_total_bytes(lte::Rnti ue_id, lte::Direction direction) const;

  void run_ttis(int ttis);
  void run_seconds(double seconds) { run_ttis(static_cast<int>(seconds * 1000.0)); }

 private:
  void start_ticker();
  void install_x2_sink(std::size_t enb_index);
  void perform_x2(std::size_t source_index, stack::UeProfile context, lte::CellId target,
                  lte::Rnti old_rnti);

  sim::Simulator sim_;
  sim::TtiTicker ticker_;
  phy::RadioEnvironment env_;
  ctrl::Coordinator coordinator_;
  stack::EpcStub epc_;
  Metrics metrics_;
  std::vector<std::unique_ptr<Enb>> enbs_;
  std::vector<std::vector<stack::EnodebDataPlane::DeliveryFn>> delivery_listeners_;
  std::vector<std::function<void(std::int64_t)>> tti_hooks_;
  sim::TimeUs last_metrics_sample_ = 0;
  bool ticker_started_ = false;
  lte::Rnti next_rnti_ = 70;
  bool x2_enabled_ = false;
  /// Stable UE identity across handovers: current RNTI -> UE id, and the
  /// inverse whereabouts index.
  std::map<std::pair<std::size_t, lte::Rnti>, lte::Rnti> rnti_to_ue_;
  std::map<lte::Rnti, UeLocation> whereabouts_;
  std::map<std::pair<lte::Rnti, lte::Direction>, std::uint64_t> ue_bytes_;
};

/// Master configuration used by most experiments: per-TTI full statistics
/// reporting and subframe-level sync, i.e. the paper's worst-case signaling
/// configuration (Sec. 5.2.1).
ctrl::MasterConfig per_tti_master_config(std::uint32_t stats_period_ttis = 1);

}  // namespace flexran::scenario
