// Warm-checkpoint codec (docs/fault_tolerance.md "Master restart"): a
// periodic, versioned serialization of the master's *durable* state --
// agent identities and configurations, installed report registrations,
// and the last-known-good policy history. Volatile state (live stats,
// in-flight requests, session liveness) is deliberately excluded: it is
// rebuilt from agent re-syncs after a restart. A master constructed over
// a checkpoint needs only a delta re-sync (stats + subscriptions) per
// agent instead of the full three-way configuration fetch.
//
// The encoding reuses the field tables of proto/fields.h, so a checkpoint
// is decodable with the same hardening guarantees as any control-channel
// frame: truncation and corruption surface as clean util::Result errors,
// never as crashes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "proto/fields.h"
#include "proto/messages.h"
#include "util/result.h"

namespace flexran::proto {

/// Durable per-agent state. The configuration rides as an embedded
/// EnbConfigReply (enb_id + per-cell configs) so the checkpoint reuses the
/// existing config codec instead of inventing a parallel one.
struct CheckpointAgent {
  std::uint32_t id = 0;
  std::string name;
  std::vector<std::string> capabilities;
  /// Last session epoch the master had learned from this agent.
  std::uint32_t epoch = 0;
  /// Cell-level configuration exactly as last reported.
  EnbConfigReply config;
  /// Report registrations the master had installed (re-arming these after
  /// a warm restore is part of the delta re-sync).
  std::vector<StatsRequest> reports;
  /// Last-known-good policy history, newest first (capped master-side).
  std::vector<std::string> policy_history;

  using Fields = Table<Field<1, &CheckpointAgent::id, Kind::varint>,
                       Field<2, &CheckpointAgent::name, Kind::string>,
                       Field<3, &CheckpointAgent::capabilities, Kind::string>,
                       Field<4, &CheckpointAgent::epoch, Kind::varint, Presence::unless_default>,
                       Field<5, &CheckpointAgent::config, Kind::message>,
                       Field<6, &CheckpointAgent::reports, Kind::message>,
                       Field<7, &CheckpointAgent::policy_history, Kind::string>>;
};

/// Hand-coded: the shard rides as `shard + 1`, so the standalone default
/// (-1) stays off the wire and a checkpoint without it decodes to -1.
struct ShardBias {
  static std::uint64_t to_wire(int shard) {
    return shard >= 0 ? static_cast<std::uint64_t>(shard) + 1 : 0;
  }
  static void from_wire(int& shard, std::uint64_t stamped) {
    shard = static_cast<int>(stamped - 1);
  }
};

struct MasterCheckpoint {
  /// Format version; decode rejects anything it does not understand with a
  /// clean error (a newer master never misreads an older file silently).
  static constexpr std::uint32_t kVersion = 1;
  std::uint32_t version = kVersion;
  /// Incarnation of the master that wrote the checkpoint; a restarted
  /// master resumes at `incarnation + 1` so fencing stays monotonic across
  /// the restart.
  std::uint32_t incarnation = 0;
  /// Simulated time the checkpoint was taken (diagnostic only).
  std::uint64_t saved_at_us = 0;
  /// Shard that wrote the checkpoint, or -1 for a standalone master. A
  /// restoring shard rejects a checkpoint stamped with a different shard
  /// index: shards under one coordinator must never restore a neighbor's
  /// agent set (the coordinator itself reads foreign checkpoints during
  /// failover, but it does so explicitly, not through restart()).
  int shard = -1;
  /// Every agent id the shard owned at save time -- including agents whose
  /// durable state was still empty (no hello yet) and therefore have no
  /// CheckpointAgent entry. Failover uses this to tell "cold because the
  /// agent was never captured" from "cold because the checkpoint is stale".
  std::vector<std::uint32_t> agent_ids;
  std::vector<CheckpointAgent> agents;

  using Fields =
      Table<Field<1, &MasterCheckpoint::version, Kind::varint>,
            Field<2, &MasterCheckpoint::incarnation, Kind::varint, Presence::unless_default>,
            Field<3, &MasterCheckpoint::saved_at_us, Kind::varint, Presence::unless_default>,
            Field<4, &MasterCheckpoint::agents, Kind::message>,
            Converted<5, &MasterCheckpoint::shard, Kind::varint, ShardBias,
                      Presence::unless_default>,
            Field<6, &MasterCheckpoint::agent_ids, Kind::varint>>;

  std::vector<std::uint8_t> encode() const;
  static util::Result<MasterCheckpoint> decode(std::span<const std::uint8_t> data);
};

}  // namespace flexran::proto
