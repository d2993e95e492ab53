// Chaos-injection harness (docs/fault_tolerance.md): scripts control-plane
// faults against a Testbed from a declarative timeline -- partitions, link
// flaps, delay spikes, message corruption, and agent crash/restart. Every
// injected fault lands as an ordinary simulator event, so chaos runs are
// fully deterministic and replayable.
#pragma once

#include <string>
#include <vector>

#include "scenario/testbed.h"

namespace flexran::scenario {

enum class FaultKind {
  /// Control channel down both ways; heals after duration_s (if > 0).
  partition,
  /// Control channel back up (explicit heal; partitions with a duration
  /// heal themselves).
  heal,
  /// One-way latency jumps to delay_ms; restores after duration_s (if > 0).
  delay_spike,
  /// The next `count` frames delivered at each endpoint arrive corrupted.
  corrupt,
  /// The next `count` frames delivered at each endpoint arrive twice,
  /// back to back (retransmit-after-lost-ack duplicates). The session
  /// layer's xid/epoch dedup must make every copy a no-op.
  duplicate,
  /// The next `count` frames delivered at each endpoint are held back and
  /// released in a deterministically shuffled order (multipath / kernel
  /// requeue reordering). SimLink itself never reorders -- the shuffle
  /// happens at the SimTransport endpoint, past the link's FIFO delivery
  /// floor -- so this is the only source of out-of-order arrival, and the
  /// session xid/epoch layer must absorb it. Frames still held 200 ms
  /// later are flushed, so a follow-up partition cannot strand them.
  reorder,
  /// Agent process crash: session torn down, nothing reconnects until a
  /// restart fault (or restart_after_s).
  crash,
  /// Restart a crashed agent (new session epoch, reconnect with backoff).
  restart,
  /// `count` down/up cycles of period_s each (rapid link flapping).
  flap,
  // Delegated-control faults (docs/delegation_safety.md): push a known-bad
  // DL scheduler VSF through the normal master-side updation + policy path.
  // The agent's VsfGuard must contain it: same-TTI fallback, quarantine
  // after N consecutive failures, and a master-side rollback to the
  // last-known-good policy.
  /// VSF that throws on every invocation.
  vsf_crash,
  /// VSF whose declared cost busts the per-TTI deadline budget.
  vsf_overrun,
  /// VSF emitting decisions that fail validation (overlap, bad RNTI/MCS).
  vsf_invalid,
  /// Overload fault (docs/overload_protection.md): registers `count`
  /// extra every-TTI full-flag periodic reports directly at the agent's
  /// ReportsManager (as a buggy/malicious northbound tool would), then
  /// cancels them after duration_s. The master's bounded queues, watchdog
  /// and throttling must degrade statistics gracefully while commands
  /// keep flowing.
  report_flood,
  /// Master process crash (docs/fault_tolerance.md "Master restart"): the
  /// targeted shard's control links go dead both ways for duration_s, then
  /// that shard restarts in place -- volatile state (RIB, sessions,
  /// in-flight requests, pending policies) is lost, a new incarnation is
  /// announced, and its fleet re-syncs under admission pacing. `enb` is
  /// ignored; `shard` picks the crashing core (-1 = every shard, which on
  /// a single-shard testbed is the classic whole-master crash).
  master_crash,
  /// Shard death without restart (docs/sharded_control.md "Shard
  /// failover"): declares shard `shard` dead at the Coordinator, which
  /// re-homes every orphaned agent onto the surviving shards (warm from
  /// the dead shard's last checkpoint when one exists). Unlike
  /// master_crash the core never comes back -- recovery is adoption, not
  /// restart. `enb` and `duration_s` are ignored; `shard` must name a
  /// specific shard (-1 is rejected at parse time).
  shard_kill,
  /// Planned shard migration (docs/sharded_control.md "Shard failover"):
  /// starts drain_shard(shard) -- quiesce, then one agent per coordinator
  /// cycle handed to the survivors with a live durable export; the shard
  /// ends `drained`. `shard` must name a specific shard (-1 is rejected at
  /// parse time); a drain that loses the race to another drain or to the
  /// shard's death is logged as rejected, not an error.
  shard_drain,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  /// When the fault fires, seconds of simulated time.
  double at_s = 0.0;
  FaultKind kind = FaultKind::partition;
  /// Target eNodeB index in the testbed; -1 = every eNodeB.
  int enb = -1;
  /// Auto-revert horizon for partition / delay_spike; crash uses it as
  /// restart_after_s. 0 = no auto-revert.
  double duration_s = 0.0;
  /// delay_spike: one-way latency while spiking.
  double delay_ms = 0.0;
  /// corrupt: frames to corrupt per endpoint; flap: down/up cycles.
  int count = 1;
  /// flap: length of each down (and each up) phase.
  double period_s = 0.05;
  /// master_crash: shard index to crash; -1 = every shard.
  int shard = -1;
};

class FaultInjector {
 public:
  explicit FaultInjector(Testbed& testbed) : testbed_(&testbed) {}

  /// Schedules one fault on the testbed's simulator timeline.
  void schedule(const FaultEvent& event);
  void schedule_all(const std::vector<FaultEvent>& events) {
    for (const auto& event : events) schedule(event);
  }

  std::uint64_t faults_injected() const { return faults_injected_; }

 private:
  void apply(const FaultEvent& event);
  /// Applies `fn` to the targeted eNodeB(s); `enb == -1` fans out.
  template <typename Fn>
  void for_each_target(int enb, Fn&& fn);
  void note(const FaultEvent& event, const std::string& extra = "");

  Testbed* testbed_;
  std::uint64_t faults_injected_ = 0;
};

}  // namespace flexran::scenario
