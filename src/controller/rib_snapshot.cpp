#include "controller/rib_snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>

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

/// Copy-on-write editor for a snapshot's slot table that is being built
/// from `base` (the previous version's table). The first write to a chunk
/// still shared with `base` clones it; later writes in the same publish go
/// to the clone.
struct SlotTableEditor {
  RibSnapshot& snapshot;
  const RibSnapshot::ChunkTable<AgentPtr>& base;
  bool membership_changed = false;

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

  void set(std::size_t id, AgentPtr node) {
    NodeChunk& chunk = writable(id / kSlots);
    if ((chunk.occupied & bit_of(id)) == 0) {
      chunk.occupied |= bit_of(id);
      ++snapshot.count_;
      membership_changed = true;
    }
    chunk.slots[id % kSlots] = std::move(node);
  }

  void erase(std::size_t id) {
    if (lookup(snapshot.nodes_, id) == nullptr) return;
    NodeChunk& chunk = writable(id / kSlots);
    chunk.occupied &= ~bit_of(id);
    chunk.slots[id % kSlots].reset();
    --snapshot.count_;
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
        set(id, std::make_shared<const AgentNode>(node));
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
  SlotTableEditor edit{*snapshot, empty};
  for (const auto& [id, agent] : rib.agents()) {
    edit.set(id, std::make_shared<const AgentNode>(agent));
  }
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

SnapshotStore::SnapshotStore() : current_(std::make_shared<const RibSnapshot>()) {}

std::shared_ptr<const RibSnapshot> SnapshotStore::publish(const Rib& rib,
                                                          const std::set<AgentId>& dirty,
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
  SlotTableEditor edit{*next, previous->nodes_};
  for (AgentId id : dirty) {
    const AgentNode* agent = rib.find_agent(id);
    if (agent != nullptr) {
      edit.set(id, std::make_shared<const AgentNode>(*agent));
    } else {
      edit.erase(id);
    }
  }
  if (structure_changed || next->count_ != rib.agent_count()) edit.reconcile(rib);
  edit.finish();
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
  return current_;
}

}  // namespace flexran::ctrl
