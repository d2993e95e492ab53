#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace flexran::sim {

namespace {
// Min-heap comparator (std heap algorithms build max-heaps, so invert).
struct EventLater {
  bool operator()(const auto& a, const auto& b) const {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};
}  // namespace

std::vector<std::uint8_t> FramePool::take(std::int64_t tti) {
  if (tti != round_tti_) {
    round_tti_ = tti;
    const std::size_t cap = peak_.end_round();
    const std::size_t keep = cap > out_ ? cap - out_ : 0;
    if (spare_.size() > keep) spare_.resize(keep);
  }
  ++out_;
  peak_.note(out_);
  if (spare_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(spare_.back());
  spare_.pop_back();
  return buffer;
}

void FramePool::give(std::vector<std::uint8_t> buffer) {
  if (out_ > 0) --out_;
  if (buffer.capacity() == 0 || spare_.size() + out_ >= peak_.cap()) return;
  buffer.clear();
  spare_.push_back(std::move(buffer));
}

void Simulator::at(TimeUs when, Callback fn) {
  assert(fn);
  // Guard against scheduling into the past; clamp to "immediately".
  heap_.push_back(Event{std::max(when, now_), next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

Simulator::Event Simulator::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

void Simulator::run() {
  stopped_ = false;
  while (!heap_empty() && !stopped_) {
    Event event = pop_event();
    now_ = event.time;
    ++executed_;
    event.fn();
  }
}

void Simulator::run_until(TimeUs until) {
  stopped_ = false;
  while (!heap_empty() && !stopped_ && heap_top_time() <= until) {
    Event event = pop_event();
    now_ = event.time;
    ++executed_;
    event.fn();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void TtiTicker::subscribe(TtiCallback fn, int priority) {
  subscribers_.push_back({priority, next_order_++, std::move(fn)});
  std::stable_sort(subscribers_.begin(), subscribers_.end(), [](const auto& a, const auto& b) {
    return a.priority != b.priority ? a.priority < b.priority : a.order < b.order;
  });
}

void TtiTicker::start() {
  if (running_) return;
  running_ = true;
  const TimeUs next_boundary = ((sim_.now() / kTtiUs) + 1) * kTtiUs;
  sim_.at(next_boundary, [this] { tick(); });
}

void TtiTicker::tick() {
  if (!running_) return;
  const std::int64_t tti = sim_.current_tti();
  for (auto& sub : subscribers_) sub.fn(tti);
  sim_.after(kTtiUs, [this] { tick(); });
}

}  // namespace flexran::sim
