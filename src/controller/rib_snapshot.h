// The RIB's one representation (paper Sec. 4.3.3): a dense slot table
// indexed by AgentId (ids are allocated monotonically from 1), split into
// fixed-size copy-on-write chunks. The RIB Updater keeps sole ownership of
// the live table, Rib (the paper's single-writer discipline), and writes it
// through one write barrier; at the end of each updater slot it freezes
// the table into an immutable RibSnapshot that applications read
// lock-free. Where the paper guarantees mutual exclusion by time-slicing
// one thread, this layer guarantees it by data versioning: the updater
// slot of cycle N+1 may overlap the application slot of cycle N because
// the apps of cycle N hold snapshot N, and the updater clones what it
// writes. See docs/controller_concurrency.md.
//
// A snapshot shares every chunk and every agent node the updater did not
// write since the previous freeze; an agent that did not change keeps the
// same AgentNode pointer. A written agent was cloned into a node that an
// older snapshot retired (the RIB keeps those, with their vectors'
// capacity, instead of freeing them), so a same-shape agent's clone
// allocates nothing. Freezing copies one pointer per chunk, however many
// agents changed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "controller/overload.h"
#include "controller/rib.h"
#include "util/recent_peak.h"

namespace flexran::ctrl {

/// Free list of retired agent nodes (rib_snapshot.cpp).
class NodePool;
class Rib;

class RibSnapshot {
 public:
  using AgentPtr = std::shared_ptr<const AgentNode>;

  /// Slots per chunk of the id-indexed tables. A publish copies one
  /// pointer per chunk and each chunk clone bumps one refcount per
  /// occupied slot. On a 4-shard fleet of 4096 agents (each shard's table
  /// spans every id, a quarter occupied) with ~16 written agents per shard
  /// and cycle, that is 4096/K + 16*K/4 refcount touches per cycle,
  /// least at K = 32; 16 and 64 measured within noise of it.
  static constexpr std::size_t kChunkSlots = 32;

  /// One chunk of a slot table: `occupied` has bit i set when slot i holds
  /// an entry. Immutable once published; shared between versions.
  template <typename T>
  struct Chunk {
    std::uint64_t occupied = 0;
    std::array<T, kChunkSlots> slots{};
    /// The Rib generation that made this chunk, and the slots whose node
    /// it made (agent tables only): both writable while that generation
    /// is the Rib's current one.
    std::uint64_t generation = 0;
    std::uint64_t owned = 0;
  };
  template <typename T>
  using ChunkTable = std::vector<std::shared_ptr<const Chunk<T>>>;

  /// The snapshot's agents as `[id, node]` pairs in ascending id; `node` is
  /// a reference to the owning slot's shared_ptr.
  class AgentRange {
   public:
    class iterator {
     public:
      using value_type = std::pair<AgentId, const AgentPtr&>;

      value_type operator*() const {
        return {static_cast<AgentId>(id_), *snapshot_->slot(static_cast<AgentId>(id_))};
      }
      iterator& operator++() {
        id_ = snapshot_->next_agent(id_ + 1);
        return *this;
      }
      bool operator==(const iterator& other) const { return id_ == other.id_; }

     private:
      friend class AgentRange;
      iterator(const RibSnapshot* snapshot, std::size_t id) : snapshot_(snapshot), id_(id) {}
      const RibSnapshot* snapshot_;
      std::size_t id_;
    };

    iterator begin() const { return {snapshot_, snapshot_->next_agent(0)}; }
    iterator end() const { return {snapshot_, kNoAgent}; }
    std::size_t size() const { return snapshot_->agent_count(); }

   private:
    friend class RibSnapshot;
    explicit AgentRange(const RibSnapshot* snapshot) : snapshot_(snapshot) {}
    const RibSnapshot* snapshot_;
  };

  /// Monotonic publish counter; bumps only when content actually changed.
  std::uint64_t version() const { return version_; }

  /// Identifies the agent *set*: it moves only when an agent is added or
  /// removed, and stamps are unique process-wide, so two snapshots with the
  /// same stamp hold the same ids (0: a fresh, empty snapshot). compose()
  /// reuses its id->shard owner table while every shard's stamp is
  /// unchanged.
  std::uint64_t membership_version() const { return membership_; }

  /// Master overload state at publish time (docs/overload_protection.md).
  /// Apps read it here to back off their own signaling under pressure.
  OverloadState overload_state() const { return overload_state_; }

  /// True while a restarted master is still rebuilding its world view from
  /// agent re-syncs (docs/fault_tolerance.md "Master restart"). The app
  /// readiness barrier: well-behaved apps issue no commands against a
  /// snapshot that is recovering -- the agents it shows are a half-rebuilt
  /// subset and their state is whatever survived the crash.
  bool recovering() const { return recovering_; }

  AgentRange agents() const { return AgentRange(this); }
  /// Null for id 0, absent and out-of-range ids.
  const AgentNode* find_agent(AgentId id) const;
  const UeNode* find_ue(AgentId id, lte::Rnti rnti) const;
  std::size_t agent_count() const { return count_; }
  std::size_t ue_count() const;

  /// A frozen version of `rib` outside its publish sequence (tests, tools,
  /// ad-hoc analytics): what Rib::publish() would freeze, at version 1.
  /// Like a write, it runs on the thread that writes `rib`.
  static std::shared_ptr<const RibSnapshot> capture(const Rib& rib);

  /// Composite of per-shard snapshots (docs/sharded_control.md): it holds
  /// the shard snapshots plus a chunked id->shard owner table, and resolves
  /// every agent to the owning shard's own slot, so composite entries are
  /// pointer-identical to the shards'. When `previous` (the last composite)
  /// was built over shards with the same membership versions, its owner
  /// table is reused and composition is O(shards) pointer copies; otherwise
  /// the owner table is rebuilt from the shards' chunk occupancy masks.
  /// Version is the sum of the shard versions (each is monotonic, so the
  /// composite version is monotonic and moves whenever any shard moved).
  /// Overload is the worst shard state; recovering is true while *any*
  /// shard is recovering -- the readiness barrier for cross-shard apps is
  /// the conjunction of the per-shard barriers. Shards own disjoint agent
  /// sets by construction; a duplicate id keeps the first shard's node.
  static std::shared_ptr<const RibSnapshot> compose(
      const std::vector<std::shared_ptr<const RibSnapshot>>& shards,
      const RibSnapshot* previous = nullptr);

 private:
  friend class Rib;

  /// The slot holding agent `id` (through the owner table for a
  /// composite), or null when absent.
  const AgentPtr* slot(AgentId id) const;
  /// Smallest occupied id >= `from`, or kNoAgent when none.
  static constexpr std::size_t kNoAgent = static_cast<std::size_t>(-1);
  std::size_t next_agent(std::size_t from) const;
  std::size_t chunk_count() const;
  std::uint64_t occupancy(std::size_t chunk) const;

  std::uint64_t version_ = 0;
  std::uint64_t membership_ = 0;
  OverloadState overload_state_ = OverloadState::normal;
  bool recovering_ = false;
  std::size_t count_ = 0;
  /// Shard snapshot: the agents themselves.
  ChunkTable<AgentPtr> nodes_;
  /// Composite: the shard snapshots and, per id, the index of its owner.
  std::vector<std::shared_ptr<const RibSnapshot>> parts_;
  std::shared_ptr<const ChunkTable<std::uint16_t>> owners_;
};

/// The live RIB: the table a RibSnapshot freezes. The RIB Updater
/// (coordinator thread) writes it through one write barrier, agent(): the
/// first write to an agent after a freeze clones its chunk and its node
/// (into a node an older version retired, when one is spare); later writes
/// go straight to the clones. Each chunk stamps the generation that made
/// it and the slots whose node it made; a chunk or node of the current
/// generation was never frozen, so no reader can see it. A reference
/// agent() returns may be written through until the next publish() or
/// capture().
///
/// Any thread may call current(). The pointer swap happens under a tiny
/// mutex -- uncontended in practice, since the hot path (applications
/// inside a cycle) reads the snapshot *pinned* into its BatchingNorthbound
/// proxy at dispatch, with no synchronization at all. A reader holding an
/// old snapshot keeps it alive for as long as it needs.
class Rib {
 public:
  Rib();
  Rib(const Rib&) = delete;
  Rib& operator=(const Rib&) = delete;

  /// The agent `id`, writable; inserted (empty, with its id) when absent.
  AgentNode& add_agent(AgentId id);
  /// The write barrier: agent `id`, writable. Throws std::out_of_range for
  /// an id the RIB does not hold -- only add_agent() inserts.
  AgentNode& agent(AgentId id);
  const AgentNode* find_agent(AgentId id) const { return table_.find_agent(id); }
  void remove_agent(AgentId id);
  /// Drops every agent (master restart). The published versions, their
  /// version counter and the node pool stay.
  void clear();

  RibSnapshot::AgentRange agents() const { return table_.agents(); }
  std::size_t agent_count() const { return table_.agent_count(); }
  /// Approximate resident size of the RIB (Fig. 8 memory series).
  std::size_t approx_bytes() const;

  /// Freezes the table as the next version. When nothing was written since
  /// the last publish and the overload and recovering state are unchanged,
  /// the current version is returned as is and the version does not move.
  std::shared_ptr<const RibSnapshot> publish(OverloadState overload = OverloadState::normal,
                                             bool recovering = false);

  /// Latest published snapshot (never null; starts at an empty version 0).
  std::shared_ptr<const RibSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Retired agent nodes kept for later clones to copy into. Never more
  /// than the most agents one generation replaced or dropped over the
  /// recent publishes (util::RecentPeak, one round per publish).
  std::size_t spare_nodes() const;

 private:
  friend class RibSnapshot;
  using NodeChunk = RibSnapshot::Chunk<RibSnapshot::AgentPtr>;

  /// Chunk `chunk` of the table, cloned (or made) first unless this
  /// generation made it.
  NodeChunk& writable_chunk(std::size_t chunk);
  /// A frozen copy of the table; later writes clone what they touch.
  std::shared_ptr<RibSnapshot> freeze() const;

  /// The working version: only its chunk table, count and membership stamp
  /// are used.
  RibSnapshot table_;
  /// Bumped by every freeze (capture() freezes a const Rib too).
  mutable std::uint64_t generation_ = 1;
  /// Something was written since the last publish.
  bool written_ = false;
  /// Shared with every node this RIB made: a node released after the RIB
  /// is gone is still freed through it.
  std::shared_ptr<NodePool> pool_;
  /// Nodes this generation replaced or dropped: the pool's need.
  std::size_t retired_ = 0;
  util::RecentPeak retired_peak_;
  mutable std::mutex mu_;
  std::shared_ptr<const RibSnapshot> current_;
};

}  // namespace flexran::ctrl
