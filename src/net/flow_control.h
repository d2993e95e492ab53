// Control-channel flow control (docs/overload_protection.md): traffic
// classes, queue budgets and the bounded class-aware queue used on every
// transport send/receive path. Classes follow the paper's Table 1 call
// classes, ordered by importance: session and configuration/command
// traffic is never shed; event triggers, sync ticks and periodic
// statistics are sheddable, lowest class first, and superseded periodic
// entries coalesce instead of queueing duplicates.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "util/recent_peak.h"

namespace flexran::net {

/// Lower value = higher priority. The shed order is the reverse: stats
/// first, then sync ticks, then event triggers; session/command/config
/// traffic is never shed (a dropped command or hello is a correctness
/// bug, a dropped periodic report is a freshness loss).
enum class TrafficClass : std::uint8_t {
  session = 0,  // hello, echo (liveness + RTT reference)
  command = 1,  // MAC configs, handover, DRX, delegation, policy
  config = 2,   // config get/set exchange, stats requests, subscriptions
  event = 3,    // triggered event notifications (attach, RACH, VSF failure)
  sync = 4,     // subframe ticks (superseded every TTI)
  stats = 5,    // periodic/one-off statistics replies
};
/// Every class, in value order.
constexpr TrafficClass kAllTrafficClasses[] = {
    TrafficClass::session, TrafficClass::command, TrafficClass::config,
    TrafficClass::event,   TrafficClass::sync,    TrafficClass::stats};
constexpr std::size_t kNumTrafficClasses = std::size(kAllTrafficClasses);

const char* to_string(TrafficClass cls);

constexpr bool sheddable(TrafficClass cls) {
  return cls == TrafficClass::event || cls == TrafficClass::sync ||
         cls == TrafficClass::stats;
}

/// Byte + message budget for one queue or link. 0 = unbounded (the seed
/// behavior); either limit alone can be set.
struct QueueBudget {
  std::size_t max_messages = 0;
  std::size_t max_bytes = 0;

  constexpr bool enabled() const { return max_messages > 0 || max_bytes > 0; }
};

/// Per-class accounting for one queue (Fig. 7-style buckets, but for the
/// protection layer: what was admitted, shed, and coalesced).
struct ClassCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_bytes = 0;
  std::uint64_t coalesced = 0;
};

/// Bounded FIFO with class-aware admission. Entries keep arrival order
/// across classes (the drain side stays FIFO; priority is enforced at
/// admission, where it decides what survives). When a budget is set:
///   - an entry pushed with a non-zero coalesce key replaces the payload
///     of the queued entry carrying the same key (same queue position, so
///     a superseded periodic report cannot jump the line);
///   - pushing past the budget sheds the oldest entry of the lowest
///     sheddable class present (stats -> sync -> event); if nothing is
///     sheddable the unsheddable entry is admitted anyway and counted as
///     a budget overflow (expected to stay 0 in any sane configuration).
/// Without a budget the queue behaves exactly like a plain deque -- no
/// shedding, no coalescing.
///
/// Entries are recycled: a popped, shed or removed entry keeps its value
/// and waits on a spare list, and swap_in() and swap_out() exchange values
/// with the caller's slot. A T that owns buffers (a decoded envelope's
/// body) therefore circulates between the caller's slots and the queue
/// without allocating once the queue has held its peak. The coalesce
/// index recycles its map nodes the same way. A round ends each time
/// swap_out() empties the queue; the spare entries and nodes are trimmed
/// by util::RecentPeak.
template <typename T>
class ClassedQueue {
 public:
  void set_budget(QueueBudget budget) { budget_ = budget; }
  const QueueBudget& budget() const { return budget_; }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::size_t peak_messages() const { return peak_messages_; }
  std::size_t peak_bytes() const { return peak_bytes_; }

  const ClassCounters& counters(TrafficClass cls) const {
    return counters_[static_cast<std::size_t>(cls)];
  }
  std::uint64_t total_shed() const {
    std::uint64_t total = 0;
    for (const auto& c : counters_) total += c.shed;
    return total;
  }
  std::uint64_t total_coalesced() const {
    std::uint64_t total = 0;
    for (const auto& c : counters_) total += c.coalesced;
    return total;
  }
  /// Unsheddable pushes admitted past the budget.
  std::uint64_t budget_overflows() const { return budget_overflows_; }

  /// Enqueues `value` (`coalesce_key` 0 = never coalesce) by swapping it
  /// into a recycled entry: `value` comes back holding that entry's old
  /// value (a superseded one when it coalesced), ready for reuse. Returns
  /// false when the pushed entry itself was shed to stay within budget.
  bool swap_in(TrafficClass cls, std::size_t message_bytes, std::uint64_t coalesce_key, T& value) {
    auto& counters = counters_[static_cast<std::size_t>(cls)];
    ++counters.enqueued;
    using std::swap;
    if (budget_.enabled() && coalesce_key != 0) {
      auto indexed = index_.find(coalesce_key);
      if (indexed != index_.end()) {
        // Superseded in place: newest payload, oldest queue position.
        Entry& entry = *indexed->second;
        bytes_ += message_bytes - entry.bytes;
        entry.bytes = message_bytes;
        swap(entry.value, value);
        ++counters.coalesced;
        note_peaks();
        return true;
      }
    }
    if (spare_.empty()) {
      entries_.emplace_back();
    } else {
      entries_.splice(entries_.end(), spare_, spare_.begin());
    }
    Entry& entry = entries_.back();
    entry.cls = cls;
    entry.bytes = message_bytes;
    entry.key = coalesce_key;
    swap(entry.value, value);
    bytes_ += message_bytes;
    recent_peak_.note(entries_.size());
    if (budget_.enabled() && coalesce_key != 0) index_key(coalesce_key, std::prev(entries_.end()));
    bool pushed_survived = true;
    while (over_budget()) {
      auto victim = pick_victim();
      if (victim == entries_.end()) {
        ++budget_overflows_;
        break;
      }
      if (std::next(victim) == entries_.end()) pushed_survived = false;
      shed(victim);
    }
    note_peaks();
    return pushed_survived;
  }

  /// FIFO pop across all classes: swaps the oldest entry's value into
  /// `slot` (whose old value the entry keeps for reuse). False when empty.
  bool swap_out(T& slot) {
    if (entries_.empty()) return false;
    Entry& entry = entries_.front();
    unindex_key(entry.key);
    bytes_ -= entry.bytes;
    using std::swap;
    swap(slot, entry.value);
    recycle(entries_.begin());
    if (entries_.empty()) {
      const std::size_t cap = recent_peak_.end_round();
      if (spare_.size() > cap) spare_.resize(cap);
      if (spare_keys_.size() > cap) spare_keys_.resize(cap);
    }
    return true;
  }

  /// Removes every entry whose value matches `pred`; returns the count.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(it->value)) {
        unindex_key(it->key);
        bytes_ -= it->bytes;
        recycle(it++);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

 private:
  struct Entry {
    TrafficClass cls = TrafficClass::session;
    std::size_t bytes = 0;
    std::uint64_t key = 0;
    T value{};
  };
  using Iterator = typename std::list<Entry>::iterator;

  bool over_budget() const {
    return (budget_.max_messages > 0 && entries_.size() > budget_.max_messages) ||
           (budget_.max_bytes > 0 && bytes_ > budget_.max_bytes);
  }

  /// Oldest entry of the lowest sheddable class present.
  Iterator pick_victim() {
    for (TrafficClass cls : {TrafficClass::stats, TrafficClass::sync, TrafficClass::event}) {
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->cls == cls) return it;
      }
    }
    return entries_.end();
  }

  void shed(Iterator victim) {
    auto& counters = counters_[static_cast<std::size_t>(victim->cls)];
    ++counters.shed;
    counters.shed_bytes += victim->bytes;
    unindex_key(victim->key);
    bytes_ -= victim->bytes;
    recycle(victim);
  }

  /// Indexes `key` in a recycled map node, if one is spare.
  void index_key(std::uint64_t key, Iterator it) {
    if (spare_keys_.empty()) {
      index_.emplace(key, it);
      return;
    }
    auto node = std::move(spare_keys_.back());
    spare_keys_.pop_back();
    node.key() = key;
    node.mapped() = it;
    index_.insert(std::move(node));
  }

  /// Drops `key` (0: none) from the index and keeps its node for reuse.
  void unindex_key(std::uint64_t key) {
    if (key == 0) return;
    if (auto node = index_.extract(key)) spare_keys_.push_back(std::move(node));
  }

  /// Moves an entry, value and all, to the front of the spare list.
  void recycle(Iterator it) { spare_.splice(spare_.begin(), entries_, it); }

  void note_peaks() {
    peak_messages_ = std::max(peak_messages_, entries_.size());
    peak_bytes_ = std::max(peak_bytes_, bytes_);
  }

  QueueBudget budget_;
  std::list<Entry> entries_;
  /// Recycled entries, most recently used first.
  std::list<Entry> spare_;
  util::RecentPeak recent_peak_;
  using Index = std::map<std::uint64_t, Iterator>;
  /// The queued entry of each coalesce key, when a budget is set.
  Index index_;
  /// Map nodes off the index, trimmed with the spare entries.
  std::vector<typename Index::node_type> spare_keys_;
  std::size_t bytes_ = 0;
  std::size_t peak_messages_ = 0;
  std::size_t peak_bytes_ = 0;
  std::uint64_t budget_overflows_ = 0;
  std::array<ClassCounters, kNumTrafficClasses> counters_{};
};

}  // namespace flexran::net
