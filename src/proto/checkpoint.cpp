#include "proto/checkpoint.h"

namespace flexran::proto {

namespace {

using util::Error;
using util::Result;

void encode_agent(WireEncoder& enc, int field, const CheckpointAgent& agent) {
  const auto mark = enc.begin_message(field);
  enc.field_varint(1, agent.id);
  enc.field_string(2, agent.name);
  for (const auto& cap : agent.capabilities) enc.field_string(3, cap);
  if (agent.epoch != 0) enc.field_varint(4, agent.epoch);
  const auto config = enc.begin_message(5);
  agent.config.encode_body(enc);
  enc.end_message(config);
  for (const auto& report : agent.reports) {
    const auto sub = enc.begin_message(6);
    report.encode_body(enc);
    enc.end_message(sub);
  }
  for (const auto& policy : agent.policy_history) enc.field_string(7, policy);
  enc.end_message(mark);
}

Result<CheckpointAgent> decode_agent(std::span<const std::uint8_t> data) {
  CheckpointAgent out;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1: dec.read(out.id); break;
      case 2: dec.read(out.name); break;
      case 3: dec.read(out.capabilities.emplace_back()); break;
      case 4: dec.read(out.epoch); break;
      case 5: {
        auto config = EnbConfigReply::decode_body(dec.bytes());
        if (!config.ok()) return config.error();
        out.config = std::move(*config);
        break;
      }
      case 6: {
        auto report = StatsRequest::decode_body(dec.bytes());
        if (!report.ok()) return report.error();
        out.reports.push_back(std::move(*report));
        break;
      }
      case 7: dec.read(out.policy_history.emplace_back()); break;
      default: dec.skip();
    }
  }
  return dec.finish(std::move(out));
}

}  // namespace

std::vector<std::uint8_t> MasterCheckpoint::encode() const {
  WireEncoder enc;
  enc.field_varint(1, version);
  if (incarnation != 0) enc.field_varint(2, incarnation);
  if (saved_at_us != 0) enc.field_varint(3, saved_at_us);
  for (const auto& agent : agents) encode_agent(enc, 4, agent);
  // Shard identity rides as `shard + 1` so the standalone default (-1)
  // stays off the wire and old checkpoints decode to it.
  if (shard >= 0) enc.field_varint(5, static_cast<std::uint64_t>(shard) + 1);
  for (const auto id : agent_ids) enc.field_varint(6, id);
  return enc.take();
}

Result<MasterCheckpoint> MasterCheckpoint::decode(std::span<const std::uint8_t> data) {
  MasterCheckpoint out;
  bool saw_version = false;
  WireDecoder dec(data);
  while (dec.next()) {
    switch (dec.field()) {
      case 1:
        dec.read(out.version);
        saw_version = true;
        break;
      case 2: dec.read(out.incarnation); break;
      case 3: dec.read(out.saved_at_us); break;
      case 4: {
        auto agent = decode_agent(dec.bytes());
        if (!agent.ok()) return agent.error();
        out.agents.push_back(std::move(*agent));
        break;
      }
      case 5:
        // Shard identity rides as `shard + 1` (see encode()).
        if (const std::uint64_t stamped = dec.varint(); stamped != 0) {
          out.shard = static_cast<int>(stamped - 1);
        }
        break;
      case 6: dec.read(out.agent_ids.emplace_back()); break;
      default: dec.skip();
    }
  }
  if (!dec.ok()) return dec.status().error();
  if (!saw_version) return Error::decode_failure("checkpoint missing version");
  if (out.version != kVersion) {
    return Error::unsupported("checkpoint version " + std::to_string(out.version) +
                              " (expected " + std::to_string(kVersion) + ")");
  }
  return out;
}

}  // namespace flexran::proto
