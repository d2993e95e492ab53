#include "controller/rib_snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <new>
#include <stdexcept>
#include <string>

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

/// The retired agent nodes of one Rib and the shared_ptr control blocks
/// that owned them. When the last table holding a node lets go, on
/// whatever thread that is (the coordinator, or an app worker holding an
/// old snapshot), the node's deleter hands it back here under the mutex
/// instead of destroying it, and the write barrier copy-assigns the next
/// clone into it: its cell, UE and hot-column vectors keep their capacity,
/// so a same-shape agent's clone allocates nothing. Both lists are capped
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

/// A copy of `agent`, in a node `pool` retired when it has one.
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

std::shared_ptr<const RibSnapshot> RibSnapshot::capture(const Rib& rib) {
  auto snapshot = rib.freeze();
  snapshot->version_ = 1;
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

Rib::Rib() : pool_(std::make_shared<NodePool>()), current_(std::make_shared<const RibSnapshot>()) {}

Rib::NodeChunk& Rib::writable_chunk(std::size_t chunk) {
  auto& table = table_.nodes_;
  if (chunk >= table.size()) table.resize(chunk + 1);
  auto& entry = table[chunk];
  if (entry != nullptr && entry->generation == generation_) {
    // Made in this generation: no frozen version shares it.
    return const_cast<NodeChunk&>(*entry);
  }
  auto copy =
      entry == nullptr ? std::make_shared<NodeChunk>() : std::make_shared<NodeChunk>(*entry);
  copy->generation = generation_;
  copy->owned = 0;
  entry = copy;
  return *copy;
}

AgentNode& Rib::add_agent(AgentId id) {
  if (find_agent(id) != nullptr) return agent(id);
  written_ = true;
  NodeChunk& chunk = writable_chunk(id / kSlots);
  chunk.occupied |= bit_of(id);
  chunk.owned |= bit_of(id);
  AgentNode empty;
  empty.id = id;
  chunk.slots[id % kSlots] = copy_agent(pool_, empty);
  ++table_.count_;
  table_.membership_ = fresh_membership();
  return const_cast<AgentNode&>(*chunk.slots[id % kSlots]);
}

AgentNode& Rib::agent(AgentId id) {
  if (find_agent(id) == nullptr) {
    throw std::out_of_range("RIB holds no agent " + std::to_string(id));
  }
  written_ = true;
  NodeChunk& chunk = writable_chunk(id / kSlots);
  AgentPtr& node = chunk.slots[id % kSlots];
  if ((chunk.owned & bit_of(id)) == 0) {
    // The frozen node goes back to the pool once no snapshot holds it.
    node = copy_agent(pool_, *node);
    chunk.owned |= bit_of(id);
    ++retired_;
  }
  return const_cast<AgentNode&>(*node);
}

void Rib::remove_agent(AgentId id) {
  if (find_agent(id) == nullptr) return;
  written_ = true;
  NodeChunk& chunk = writable_chunk(id / kSlots);
  chunk.occupied &= ~bit_of(id);
  chunk.owned &= ~bit_of(id);
  chunk.slots[id % kSlots].reset();
  if (chunk.occupied == 0) table_.nodes_[id / kSlots] = nullptr;
  --table_.count_;
  ++retired_;
  table_.membership_ = fresh_membership();
}

void Rib::clear() {
  written_ = true;
  retired_ += table_.count_;
  table_.nodes_.clear();
  table_.count_ = 0;
  table_.membership_ = fresh_membership();
}

std::size_t Rib::approx_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [id, agent] : agents()) {
    (void)id;
    bytes += agent->approx_bytes();
  }
  return bytes;
}

std::shared_ptr<RibSnapshot> Rib::freeze() const {
  ++generation_;
  return std::make_shared<RibSnapshot>(table_);
}

std::shared_ptr<const RibSnapshot> Rib::publish(OverloadState overload, bool recovering) {
  auto previous = current();
  if (!written_ && previous->overload_state() == overload &&
      previous->recovering() == recovering) {
    return previous;
  }
  auto next = freeze();
  next->version_ = previous->version() + 1;
  next->overload_state_ = overload;
  next->recovering_ = recovering;
  written_ = false;
  // The nodes this generation replaced come back once `previous` (and any
  // older snapshot a reader still holds) is released; the next generation
  // clones about as many. A publish is a round of the recent-peak rule, so
  // a write count that varies from cycle to cycle keeps the pool at its
  // recent peak instead of the last generation's count.
  retired_peak_.note(retired_);
  retired_ = 0;
  pool_->set_cap(retired_peak_.end_round());
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
  return current_;
}

std::size_t Rib::spare_nodes() const { return pool_->spare(); }

}  // namespace flexran::ctrl
