// Pluggable persistence for master warm checkpoints
// (docs/fault_tolerance.md "Master restart"). The master serializes a
// proto::MasterCheckpoint and hands the bytes to a sink; what "durable"
// means -- a file, a replicated store, test memory -- is the sink's
// business. `load()` returns the most recent checkpoint or a clean
// not_found when none exists yet.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"

namespace flexran::ctrl {

class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual util::Status save(std::span<const std::uint8_t> bytes) = 0;
  virtual util::Result<std::vector<std::uint8_t>> load() = 0;

  // ---- fault injection -----------------------------------------------------
  /// The next `n` saves fail the way a full disk or a flaky filesystem
  /// would. The caller is expected to retry with backoff and must never
  /// lose the last good checkpoint: FileCheckpointSink fails these saves
  /// mid-write, leaving a torn `.tmp` behind -- exactly the crash the
  /// atomic tmp+rename protocol exists to survive.
  void fail_next_saves(int n) { fail_remaining_ += n; }
  /// Saves that returned an error so far, injected or real.
  std::uint64_t saves_failed() const { return saves_failed_; }

 protected:
  /// True when this save should fail by injection; consumes one token.
  bool consume_injected_failure() {
    if (fail_remaining_ <= 0) return false;
    --fail_remaining_;
    return true;
  }
  void note_save_failed() { ++saves_failed_; }

 private:
  int fail_remaining_ = 0;
  std::uint64_t saves_failed_ = 0;
};

/// File-backed sink: writes to `<path>.tmp` then renames over `<path>`, so
/// a crash mid-save never leaves a torn checkpoint behind (the previous
/// complete one survives).
class FileCheckpointSink : public CheckpointSink {
 public:
  explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {}

  util::Status save(std::span<const std::uint8_t> bytes) override;
  util::Result<std::vector<std::uint8_t>> load() override;


  /// Per-shard checkpoint file under a shared directory:
  /// `<dir>/shard-<index>.ckpt`. N shards checkpointing into one directory
  /// must never clobber each other -- the filename, not the caller, carries
  /// the shard identity.
  static std::string shard_path(const std::string& dir, std::size_t shard);

 private:
  std::string path_;
};

/// In-memory sink for tests, benches and scenario runs: survives a
/// simulated master restart (the sink outlives ShardCore::restart())
/// without touching the filesystem.
class MemoryCheckpointSink : public CheckpointSink {
 public:
  util::Status save(std::span<const std::uint8_t> bytes) override {
    if (consume_injected_failure()) {
      note_save_failed();
      return util::Error::transport_failure("injected checkpoint write failure");
    }
    stored_.emplace(bytes.begin(), bytes.end());
    ++saves_;
    return {};
  }

  util::Result<std::vector<std::uint8_t>> load() override {
    if (!stored_.has_value()) return util::Error::not_found("no checkpoint saved");
    return *stored_;
  }

  bool has_checkpoint() const { return stored_.has_value(); }
  std::uint64_t saves() const { return saves_; }

 private:
  std::optional<std::vector<std::uint8_t>> stored_;
  std::uint64_t saves_ = 0;
};

}  // namespace flexran::ctrl
