// The FlexRAN Agent (paper Fig. 2): per-eNodeB local controller. It
// bridges the data plane and the master: dispatches incoming FlexRAN
// protocol messages to the right control module / VSF, runs the active
// scheduling VSFs each subframe, buffers master-pushed schedule-ahead
// decisions, manages statistics reports and event notifications, and can
// act autonomously under delegated control when the master is far away.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent_api.h"
#include "agent/control_module.h"
#include "agent/reports.h"
#include "agent/schedulers.h"
#include "agent/vsf.h"
#include "agent/vsf_guard.h"
#include "net/transport.h"
#include "proto/accounting.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "stack/enodeb.h"

namespace flexran::agent {

// ---- session fault tolerance (docs/fault_tolerance.md) ---------------------
/// First retry delay after a failed reconnect attempt; doubles per failure
/// up to kReconnectMaxBackoff (exponential backoff).
inline constexpr sim::TimeUs kReconnectInitialBackoff = sim::from_ms(20.0);
inline constexpr sim::TimeUs kReconnectMaxBackoff = sim::from_ms(1000.0);
/// While the master has not been heard from at all this session, the hello
/// is re-sent every this many TTIs (covers a hello lost to a partition that
/// raced the connect).
inline constexpr std::int64_t kHelloRetryTtis = 100;
/// Deterministic per-agent spread multiplied into every reconnect backoff
/// (and retry-after hold): each delay is scaled by a factor in
/// [1, 1 + kReconnectJitter) derived from a stable hash of the agent's
/// identity. After a master restart the whole fleet retries; without jitter
/// all agents that observed the outage at the same TTI would retry in
/// lockstep forever (the backoff doubles identically).
inline constexpr double kReconnectJitter = 0.5;

// ---- delegated-control containment (docs/delegation_safety.md) -------------
/// Built-in local defaults the guard falls back to within the same TTI for
/// the UL scheduler and handover-policy slots. The DL fallback is
/// AgentConfig::fallback_scheduler (shared with the remote-outage fallback,
/// one unified degradation path).
inline constexpr std::string_view kUlFallbackScheduler = "local_rr";
inline constexpr std::string_view kHandoverFallbackPolicy = "a3";

struct AgentConfig {
  lte::EnbId enb_id = 1;
  std::string name = "agent";
  /// Initial DL scheduler behavior ("local_rr", "local_pf", "remote", ...).
  std::string dl_scheduler = "local_rr";
  /// Initial UL scheduler behavior.
  std::string ul_scheduler = "local_rr";
  /// Resilience under delegated control: if the DL scheduler behavior is
  /// "remote" and no message has been received from the master for this
  /// many TTIs, the agent autonomously falls back to `fallback_scheduler`
  /// so UEs keep being served through a control-channel outage. 0 = off.
  /// The fallback is two-way: once master messages resume, the DL scheduler
  /// is re-promoted to remote control.
  std::int64_t remote_fallback_ttis = 0;
  std::string fallback_scheduler = "local_rr";
};

class Agent final : public stack::EnodebDataPlane::Listener {
 public:
  Agent(sim::Simulator& sim, stack::EnodebDataPlane& data_plane, AgentConfig config);
  ~Agent() override;
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Attaches the transport to the master, opens a new session epoch and
  /// sends the hello. The agent also installs itself as the data plane's
  /// listener. Call again (possibly with a different transport) to
  /// reconnect after disconnect().
  void connect(net::Transport& transport);
  /// Tears the session down: detaches the transport and clears
  /// session-scoped state (queued remote decisions, event subscriptions,
  /// stats registrations -- the master reinstalls them on re-sync). Does
  /// not schedule a reconnect; crash/restart harnesses drive that.
  void disconnect();
  bool connected() const { return transport_ != nullptr; }

  /// Supplies transports for automatic reconnection. Returning nullptr
  /// means "master unreachable, try again later" (exponential backoff).
  using ReconnectProvider = std::function<net::Transport*()>;
  void set_reconnect_provider(ReconnectProvider provider) {
    reconnect_provider_ = std::move(provider);
  }
  /// Schedules a reconnect attempt `delay` from now (idempotent while one
  /// is pending). Used on restart and by the transport-loss handler.
  void schedule_reconnect(sim::TimeUs delay = 0);

  /// Current session epoch (1 = first connection, bumped every reconnect).
  std::uint32_t session_epoch() const { return session_epoch_; }

  AgentApi& api() { return api_; }
  MacControlModule& mac() { return mac_; }
  VsfCache& vsf_cache() { return cache_; }
  VsfGuard& vsf_guard() { return guard_; }
  ReportsManager& reports() { return reports_; }

  /// Applies a policy reconfiguration YAML document locally (the same code
  /// path a PolicyReconfiguration protocol message takes).
  util::Status apply_policy(const std::string& yaml);

  /// X2-equivalent: receives the UE context detached by a handover so it
  /// can be re-established at the target cell. Without a sink the context
  /// is dropped (UE released), as when no neighbor relation exists.
  using HandoverSink =
      std::function<void(stack::UeProfile context, lte::CellId target, lte::Rnti old_rnti)>;
  void set_handover_sink(HandoverSink sink) { handover_sink_ = std::move(sink); }
  std::uint64_t handovers_executed() const { return handovers_executed_; }

  // ---- data plane listener -------------------------------------------------
  void on_subframe_start(std::int64_t subframe) override;
  void on_rach(lte::Rnti rnti, std::int64_t subframe) override;
  void on_ue_attached(lte::Rnti rnti, std::int64_t subframe) override;
  void on_ue_detached(lte::Rnti rnti, std::int64_t subframe) override;
  void on_scheduling_request(lte::Rnti rnti, std::int64_t subframe) override;

  // ---- introspection -------------------------------------------------------
  const proto::SignalingAccountant& tx_accounting() const { return tx_accounting_; }
  /// Master -> agent signaling as received, recorded with the same
  /// frame-header-bytes convention as every other accounting site, so the
  /// Fig. 7 breakdowns reconcile from both ends of the link.
  const proto::SignalingAccountant& rx_accounting() const { return rx_accounting_; }
  std::uint64_t missed_deadline_decisions() const { return missed_deadline_decisions_; }
  std::uint64_t remote_decisions_applied() const { return remote_decisions_applied_; }
  std::uint64_t messages_received() const { return messages_received_; }
  std::uint64_t fallback_activations() const { return fallback_activations_; }
  /// Times the DL scheduler was handed back to remote control after a
  /// fallback, because master messages resumed.
  std::uint64_t fallback_recoveries() const { return fallback_recoveries_; }
  /// Master messages dropped because they carried a stale session epoch.
  std::uint64_t fenced_messages() const { return fenced_messages_; }
  std::uint64_t reconnect_attempts() const { return reconnect_attempts_; }
  std::uint64_t hello_retries() const { return hello_retries_; }
  /// Highest master incarnation observed (docs/fault_tolerance.md "Master
  /// restart"); 0 = incarnation-unaware master.
  std::uint32_t master_incarnation() const { return master_incarnation_; }
  /// Master messages dropped because they carried an older incarnation
  /// (traffic from a dead master straggling in after a restart).
  std::uint64_t fenced_incarnation_messages() const { return fenced_incarnation_messages_; }
  /// Master restarts detected through an incarnation bump.
  std::uint64_t master_restarts_seen() const { return master_restarts_seen_; }
  /// Simulated times of reconnect attempts (capped; for jitter tests).
  const std::vector<sim::TimeUs>& reconnect_attempt_times() const {
    return reconnect_attempt_times_;
  }
  /// The per-agent jittered view of a backoff delay (exposed so tests can
  /// assert that distinct agents spread out without replaying the clock).
  sim::TimeUs jittered_backoff(sim::TimeUs backoff) const;
  std::size_t queued_decisions() const;
  /// Policy reconfigurations accepted / rejected by the two-phase apply.
  std::uint64_t policies_applied() const { return policies_applied_; }
  std::uint64_t policies_rejected() const { return policies_rejected_; }

 private:
  void handle_message(std::span<const std::uint8_t> data);
  void handle_envelope(const proto::Envelope& envelope);
  void send_hello();
  void on_transport_disconnect(const util::Error& error);
  void try_reconnect(sim::TimeUs next_backoff);

  template <typename M>
  void send_message(const M& message, std::uint32_t xid = 0);

  /// The queued decision for `subframe`, taking a free slot (cleared) when
  /// none is queued yet.
  lte::SchedulingDecision& queue_slot(std::int64_t subframe);
  void execute_handover(lte::Rnti rnti, lte::CellId target);
  /// Guard failure hook: turns a verdict into a vsf_failure /
  /// vsf_quarantined triggered event for the master.
  void on_vsf_failure(const VsfFailureRecord& record);

  sim::Simulator& sim_;
  stack::EnodebDataPlane& data_plane_;
  AgentConfig config_;
  AgentApi api_;
  VsfCache cache_;
  MacControlModule mac_;
  RrcControlModule rrc_;
  VsfGuard guard_;
  ReportsManager reports_;

  net::Transport* transport_ = nullptr;  // not owned

  /// Schedule-ahead buffer: master decisions by target subframe. Slots are
  /// reused, not freed, so a steady schedule-ahead horizon (a handful of
  /// subframes) stops allocating once every slot's DCI vectors are warm.
  struct QueuedDecision {
    bool queued = false;
    lte::SchedulingDecision decision;
  };
  std::vector<QueuedDecision> decision_queue_;
  /// This subframe's local plus pushed decision, rebuilt in place.
  lte::SchedulingDecision combined_;
  /// Reused decode targets for master-pushed DL / UL MAC configs.
  proto::DlMacConfig rx_dl_config_;
  proto::UlMacConfig rx_ul_config_;
  std::set<proto::EventType> subscribed_events_;

  proto::SignalingAccountant tx_accounting_;
  proto::SignalingAccountant rx_accounting_;
  /// Per-link scratch for the zero-allocation wire path
  /// (docs/wire_fastpath.md): the send encoder and receive envelope are
  /// cleared and reused per message, so steady-state signaling touches the
  /// allocator only when a message outgrows every previous one.
  proto::WireEncoder send_enc_;
  proto::Envelope rx_envelope_;
  /// Latest master envelope timestamp not yet echoed (0 = none): attached
  /// as ts_echo_us to the next outgoing message, then cleared, feeding the
  /// master's end-to-end control-latency histogram
  /// (docs/observability.md). Zero-cost when the master never stamps.
  std::uint64_t pending_ts_echo_us_ = 0;
  std::uint64_t missed_deadline_decisions_ = 0;
  std::uint64_t remote_decisions_applied_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t fallback_activations_ = 0;
  std::uint64_t fallback_recoveries_ = 0;
  std::uint64_t fenced_messages_ = 0;
  std::uint64_t reconnect_attempts_ = 0;
  std::uint64_t hello_retries_ = 0;
  std::uint64_t policies_applied_ = 0;
  std::uint64_t policies_rejected_ = 0;
  std::int64_t last_master_contact_subframe_ = 0;
  std::int64_t last_hello_subframe_ = 0;
  std::uint32_t session_epoch_ = 0;
  /// Highest master incarnation seen; older-incarnation messages fence.
  std::uint32_t master_incarnation_ = 0;
  std::uint64_t fenced_incarnation_messages_ = 0;
  std::uint64_t master_restarts_seen_ = 0;
  /// While set, the hello retry loop stays quiet (a restarted master's
  /// admission gate asked us to hold).
  sim::TimeUs hello_hold_until_ = 0;
  std::vector<sim::TimeUs> reconnect_attempt_times_;
  bool master_heard_this_session_ = false;
  bool fallback_active_ = false;
  bool reconnect_pending_ = false;
  ReconnectProvider reconnect_provider_;
  HandoverSink handover_sink_;
  std::uint64_t handovers_executed_ = 0;
  std::uint32_t next_xid_ = 1;
};

}  // namespace flexran::agent
