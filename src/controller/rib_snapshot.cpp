#include "controller/rib_snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <new>

namespace flexran::ctrl {

namespace {

constexpr std::size_t kSlots = RibSnapshot::kChunkSlots;
static_assert(kSlots > 0 && kSlots <= 64, "chunk occupancy is one 64-bit mask");

using AgentPtr = RibSnapshot::AgentPtr;
using NodeChunk = RibSnapshot::Chunk<AgentPtr>;
using OwnerChunk = RibSnapshot::Chunk<std::uint16_t>;

std::uint64_t bit_of(std::size_t id) { return std::uint64_t{1} << (id % kSlots); }

/// Process-wide source of membership stamps (0 is a fresh, empty snapshot).
std::uint64_t fresh_membership() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

template <typename T>
std::uint64_t mask_at(const RibSnapshot::ChunkTable<T>& table, std::size_t chunk) {
  return chunk < table.size() && table[chunk] != nullptr ? table[chunk]->occupied : 0;
}

template <typename T>
const T* lookup(const RibSnapshot::ChunkTable<T>& table, std::size_t id) {
  const std::size_t chunk = id / kSlots;
  if ((mask_at(table, chunk) & bit_of(id)) == 0) return nullptr;
  return &table[chunk]->slots[id % kSlots];
}

}  // namespace

/// The retired agent nodes of one SnapshotStore and the shared_ptr control
/// blocks that owned them. When the last snapshot holding a node lets go,
/// on whatever thread that is (the coordinator, or an app worker holding
/// an old snapshot), the node's deleter hands it back here under the mutex
/// instead of destroying it, and the next publish copy-assigns a dirty
/// agent into it: its cell, UE and hot-column vectors keep their capacity,
/// so a same-shape agent's copy allocates nothing. Both lists are capped
/// (set_cap); a node or block returned past the cap is freed.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() {
    for (AgentNode* node : nodes_) delete node;
    for (void* block : blocks_) ::operator delete(block);
  }

  /// A spare node, or null when there is none.
  AgentNode* take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (nodes_.empty()) return nullptr;
    AgentNode* node = nodes_.back();
    nodes_.pop_back();
    return node;
  }

  void retire(AgentNode* node) noexcept {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (nodes_.size() < cap_) {
        nodes_.push_back(node);  // never reallocates: set_cap reserved cap_
        return;
      }
    }
    delete node;
  }

  void* take_block(std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (bytes == block_bytes_ && !blocks_.empty()) {
        void* block = blocks_.back();
        blocks_.pop_back();
        return block;
      }
    }
    return ::operator new(bytes);
  }

  void retire_block(void* block, std::size_t bytes) noexcept {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (block_bytes_ == 0) block_bytes_ = bytes;
      if (bytes == block_bytes_ && blocks_.size() < cap_) {
        blocks_.push_back(block);
        return;
      }
    }
    ::operator delete(block);
  }

  /// Keeps at most `cap` spare nodes and blocks from now on.
  void set_cap(std::size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    cap_ = cap;
    nodes_.reserve(cap);
    blocks_.reserve(cap);
    for (; nodes_.size() > cap; nodes_.pop_back()) delete nodes_.back();
    for (; blocks_.size() > cap; blocks_.pop_back()) ::operator delete(blocks_.back());
  }

  std::size_t spare() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<AgentNode*> nodes_;
  std::vector<void*> blocks_;
  /// Size of a control block (one type, so one size; 0 until the first).
  std::size_t block_bytes_ = 0;
  std::size_t cap_ = 0;
};

namespace {

/// Allocates a pooled node's shared_ptr control block from the pool, and
/// keeps the pool alive for as long as the block exists.
template <typename T>
struct BlockAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  explicit BlockAllocator(std::shared_ptr<NodePool> owner) : pool(std::move(owner)) {}
  template <typename U>
  BlockAllocator(const BlockAllocator<U>& other) : pool(other.pool) {}

  T* allocate(std::size_t n) { return static_cast<T*>(pool->take_block(n * sizeof(T))); }
  void deallocate(T* block, std::size_t n) noexcept { pool->retire_block(block, n * sizeof(T)); }
  template <typename U>
  bool operator==(const BlockAllocator<U>& other) const {
    return pool == other.pool;
  }

  std::shared_ptr<NodePool> pool;
};

/// A pooled node's deleter. The pointer is not an owner: the allocator
/// stored in the same control block keeps the pool alive until after the
/// deleter ran.
struct Retire {
  NodePool* pool;
  void operator()(AgentNode* node) const noexcept { pool->retire(node); }
};

/// A snapshot copy of `agent`, in a node `pool` retired when it has one.
AgentPtr copy_agent(const std::shared_ptr<NodePool>& pool, const AgentNode& agent) {
  AgentNode* node = pool->take();
  if (node == nullptr) {
    node = new AgentNode(agent);
  } else {
    try {
      *node = agent;
    } catch (...) {
      delete node;
      throw;
    }
  }
  // Should the control block not fit, the constructor hands `node` to the
  // deleter, which returns it to the pool.
  return AgentPtr(node, Retire{pool.get()}, BlockAllocator<AgentNode>(pool));
}

}  // namespace

/// Copy-on-write editor for a snapshot's slot table that is being built
/// from `base` (the previous version's table). The first write to a chunk
/// still shared with `base` clones it; later writes in the same publish go
/// to the clone.
struct SlotTableEditor {
  RibSnapshot& snapshot;
  const RibSnapshot::ChunkTable<AgentPtr>& base;
  /// Source of the agent copies.
  const std::shared_ptr<NodePool>& pool;
  bool membership_changed = false;
  /// Nodes of `base` this edit replaced or dropped: they go back to `pool`
  /// once the last snapshot sharing them is released.
  std::size_t retired = 0;

  NodeChunk& writable(std::size_t chunk) {
    auto& table = snapshot.nodes_;
    if (chunk >= table.size()) table.resize(chunk + 1);
    auto& entry = table[chunk];
    const NodeChunk* shared = chunk < base.size() ? base[chunk].get() : nullptr;
    if (entry == nullptr || entry.get() == shared) {
      auto copy = entry == nullptr ? std::make_shared<NodeChunk>()
                                   : std::make_shared<NodeChunk>(*entry);
      entry = copy;
      return *copy;
    }
    // Cloned earlier in this publish and not yet visible to any reader.
    return const_cast<NodeChunk&>(*entry);
  }

  void set(std::size_t id, const AgentNode& agent) {
    NodeChunk& chunk = writable(id / kSlots);
    if ((chunk.occupied & bit_of(id)) == 0) {
      chunk.occupied |= bit_of(id);
      ++snapshot.count_;
      membership_changed = true;
    } else {
      ++retired;
    }
    chunk.slots[id % kSlots] = copy_agent(pool, agent);
  }

  void erase(std::size_t id) {
    if (lookup(snapshot.nodes_, id) == nullptr) return;
    NodeChunk& chunk = writable(id / kSlots);
    chunk.occupied &= ~bit_of(id);
    chunk.slots[id % kSlots].reset();
    --snapshot.count_;
    ++retired;
    membership_changed = true;
    if (chunk.occupied == 0) snapshot.nodes_[id / kSlots] = nullptr;
  }

  /// Makes the agent set equal to `rib`'s: copies agents the table lacks
  /// and drops ids the RIB no longer holds. Walks both in ascending id.
  void reconcile(const Rib& rib) {
    std::size_t cursor = snapshot.next_agent(0);
    for (const auto& [id, node] : rib.agents()) {
      for (; cursor < id; cursor = snapshot.next_agent(cursor + 1)) erase(cursor);
      if (cursor == id) {
        cursor = snapshot.next_agent(cursor + 1);
      } else {
        set(id, node);
      }
    }
    for (; cursor != RibSnapshot::kNoAgent; cursor = snapshot.next_agent(cursor + 1)) {
      erase(cursor);
    }
  }

  void finish() {
    if (membership_changed) snapshot.membership_ = fresh_membership();
  }
};

const AgentPtr* RibSnapshot::slot(AgentId id) const {
  if (owners_ == nullptr) return lookup(nodes_, id);
  const std::uint16_t* owner = lookup(*owners_, id);
  return owner == nullptr ? nullptr : parts_[*owner]->slot(id);
}

std::size_t RibSnapshot::chunk_count() const {
  return owners_ != nullptr ? owners_->size() : nodes_.size();
}

std::uint64_t RibSnapshot::occupancy(std::size_t chunk) const {
  return owners_ != nullptr ? mask_at(*owners_, chunk) : mask_at(nodes_, chunk);
}

std::size_t RibSnapshot::next_agent(std::size_t from) const {
  const std::size_t chunks = chunk_count();
  for (std::size_t chunk = from / kSlots; chunk < chunks; ++chunk) {
    std::uint64_t bits = occupancy(chunk);
    if (chunk == from / kSlots) bits &= ~std::uint64_t{0} << (from % kSlots);
    if (bits != 0) return chunk * kSlots + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return kNoAgent;
}

const AgentNode* RibSnapshot::find_agent(AgentId id) const {
  const AgentPtr* node = slot(id);
  return node == nullptr ? nullptr : node->get();
}

const UeNode* RibSnapshot::find_ue(AgentId id, lte::Rnti rnti) const {
  const AgentNode* agent = find_agent(id);
  return agent == nullptr ? nullptr : agent->find_ue(rnti);
}

std::size_t RibSnapshot::ue_count() const {
  std::size_t count = 0;
  for (const auto& [id, agent] : agents()) {
    (void)id;
    count += agent->ues.size();
  }
  return count;
}

std::shared_ptr<const RibSnapshot> RibSnapshot::capture(const Rib& rib, std::uint64_t version) {
  auto snapshot = std::make_shared<RibSnapshot>();
  snapshot->version_ = version;
  const ChunkTable<AgentPtr> empty;
  // A pool that keeps nothing: the nodes are freed with the snapshot.
  const auto pool = std::make_shared<NodePool>();
  SlotTableEditor edit{*snapshot, empty, pool};
  for (const auto& [id, agent] : rib.agents()) edit.set(id, agent);
  edit.finish();
  return snapshot;
}

std::shared_ptr<const RibSnapshot> RibSnapshot::compose(
    const std::vector<std::shared_ptr<const RibSnapshot>>& shards,
    const RibSnapshot* previous) {
  auto composite = std::make_shared<RibSnapshot>();
  auto& parts = composite->parts_;
  parts.reserve(shards.size());
  for (const auto& shard : shards) {
    if (shard == nullptr) continue;
    composite->version_ += shard->version();
    if (shard->overload_state() > composite->overload_state_) {
      composite->overload_state_ = shard->overload_state();
    }
    composite->recovering_ = composite->recovering_ || shard->recovering();
    parts.push_back(shard);
  }

  // While no shard's agent set moved, neither did any owner.
  if (previous != nullptr && previous->owners_ != nullptr &&
      previous->parts_.size() == parts.size() &&
      std::equal(parts.begin(), parts.end(), previous->parts_.begin(),
                 [](const auto& part, const auto& old) {
                   return part->membership_ == old->membership_;
                 })) {
    composite->owners_ = previous->owners_;
    composite->count_ = previous->count_;
    composite->membership_ = previous->membership_;
    return composite;
  }

  std::size_t chunks = 0;
  for (const auto& part : parts) chunks = std::max(chunks, part->chunk_count());
  auto owners = std::make_shared<ChunkTable<std::uint16_t>>(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::uint64_t assigned = 0;
    std::shared_ptr<OwnerChunk> chunk;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      std::uint64_t bits = parts[p]->occupancy(c) & ~assigned;  // first shard wins
      if (bits == 0) continue;
      if (chunk == nullptr) chunk = std::make_shared<OwnerChunk>();
      assigned |= bits;
      for (; bits != 0; bits &= bits - 1) {
        chunk->slots[std::countr_zero(bits)] = static_cast<std::uint16_t>(p);
      }
    }
    if (chunk == nullptr) continue;
    chunk->occupied = assigned;
    composite->count_ += static_cast<std::size_t>(std::popcount(assigned));
    (*owners)[c] = std::move(chunk);
  }
  composite->owners_ = std::move(owners);
  composite->membership_ = fresh_membership();
  return composite;
}

SnapshotStore::SnapshotStore()
    : current_(std::make_shared<const RibSnapshot>()), pool_(std::make_shared<NodePool>()) {}

std::size_t SnapshotStore::spare_nodes() const { return pool_->spare(); }

std::shared_ptr<const RibSnapshot> SnapshotStore::publish(const Rib& rib,
                                                          std::span<const AgentId> dirty,
                                                          bool structure_changed,
                                                          OverloadState overload,
                                                          bool recovering) {
  auto previous = current();
  if (dirty.empty() && !structure_changed && previous->overload_state() == overload &&
      previous->recovering() == recovering) {
    return previous;
  }

  auto next = std::make_shared<RibSnapshot>();
  next->version_ = previous->version() + 1;
  next->overload_state_ = overload;
  next->recovering_ = recovering;
  next->nodes_ = previous->nodes_;  // shares every chunk until written
  next->count_ = previous->count_;
  next->membership_ = previous->membership_;
  SlotTableEditor edit{*next, previous->nodes_, pool_};
  for (AgentId id : dirty) {
    const AgentNode* agent = rib.find_agent(id);
    if (agent != nullptr) {
      edit.set(id, *agent);
    } else {
      edit.erase(id);
    }
  }
  if (structure_changed || next->count_ != rib.agent_count()) edit.reconcile(rib);
  edit.finish();
  // The nodes this publish retired come back once `previous` (and any
  // older snapshot a reader still holds) is released; a later publish needs
  // about as many. A publish is a round of the recent-peak rule, so a dirty
  // count that varies from cycle to cycle keeps the pool at its recent
  // peak instead of the last two publishes' count.
  retired_peak_.note(edit.retired);
  pool_->set_cap(retired_peak_.end_round());
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
  return current_;
}

}  // namespace flexran::ctrl
