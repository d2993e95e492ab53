#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// ------------------------------------------------- counting operator new --
// Replaces the global allocation functions for the whole benchmark binary,
// so every heap allocation the program makes is counted. The tracer pauses
// counting around its own bookkeeping.

namespace {
// Per thread and without a locked instruction: the benchmark does all its
// work on one thread, and an atomic add on every allocation would itself
// be a measurable share of the allocator's cost.
thread_local std::uint64_t g_allocs = 0;
thread_local int g_alloc_pause = 0;

void* counted_alloc(std::size_t size) {
  if (g_alloc_pause == 0) ++g_allocs;
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_alloc_pause == 0) ++g_allocs;
  const auto alignment = std::max(static_cast<std::size_t>(align), sizeof(void*));
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t allocs() { return g_allocs; }
AllocPause::AllocPause() { ++g_alloc_pause; }
AllocPause::~AllocPause() { --g_alloc_pause; }

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::sim: return "sim";
    case Layer::stack: return "stack";
    case Layer::agent: return "agent";
    case Layer::net: return "net";
    case Layer::controller: return "controller";
    case Layer::apps: return "apps";
    case Layer::traffic: return "traffic";
    case Layer::kCount: break;
  }
  return "?";
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::tti: return "sim.tti";
    case Kind::cycle: return "controller.cycle";
    case Kind::controller_rx: return "controller.rx";
    case Kind::command: return "controller.command";
    case Kind::compose: return "controller.compose";
    case Kind::stack_subframe: return "stack.subframe";
    case Kind::agent_subframe: return "agent.subframe";
    case Kind::agent_event: return "agent.event";
    case Kind::agent_rx: return "agent.rx";
    case Kind::net_send: return "net.send";
    case Kind::app_remote_scheduler: return "apps.remote_scheduler";
    case Kind::app_monitoring: return "apps.monitoring";
    case Kind::app_global: return "apps.global";
    case Kind::traffic: return "traffic.source";
    case Kind::kCount: break;
  }
  return "?";
}

Layer layer_of(Kind kind) {
  switch (kind) {
    case Kind::tti: return Layer::sim;
    case Kind::cycle:
    case Kind::controller_rx:
    case Kind::command:
    case Kind::compose: return Layer::controller;
    case Kind::stack_subframe: return Layer::stack;
    case Kind::agent_subframe:
    case Kind::agent_event:
    case Kind::agent_rx: return Layer::agent;
    case Kind::net_send: return Layer::net;
    case Kind::app_remote_scheduler:
    case Kind::app_monitoring:
    case Kind::app_global: return Layer::apps;
    case Kind::traffic: return Layer::traffic;
    case Kind::kCount: break;
  }
  return Layer::sim;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::start(std::size_t dump_ttis) {
  AllocPause pause;
  dump_ttis_ = dump_ttis;
  records_.reserve(dump_ttis * 64);
  on_ = true;
}

void Tracer::open(Kind kind, std::uint32_t key) {
  AllocPause pause;
  if (depth_ == stack_.size()) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  Open& span = stack_[depth_];
  span.kind = kind;
  span.key = key;
  span.child_ns = 0;
  span.child_allocs = 0;
  span.parent_record = depth_ > 0 ? stack_[depth_ - 1].record : -1;
  span.record = -1;
  if (ttis_seen_ <= dump_ttis_ && ttis_seen_ > 0) {
    span.record = static_cast<std::int32_t>(records_.size());
    records_.push_back(Record{kind, key, span.parent_record, tti_, 0, 0});
  }
  ++depth_;
  span.start_allocs = allocs();
  span.start = cpu_ns();
}

void Tracer::close() {
  const std::int64_t end = cpu_ns();
  const std::uint64_t end_allocs = allocs();
  AllocPause pause;
  Open& span = stack_[--depth_];
  const std::int64_t length = end - span.start;
  const std::int64_t self = length - span.child_ns;
  const std::uint64_t total_allocs = end_allocs - span.start_allocs;
  const std::uint64_t self_allocs = total_allocs - span.child_allocs;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += length;
    stack_[depth_ - 1].child_allocs += total_allocs;
  }
  if (span.record >= 0) {
    records_[static_cast<std::size_t>(span.record)].start = span.start;
    records_[static_cast<std::size_t>(span.record)].end = end;
  }
  layer_total_ns_[static_cast<std::size_t>(layer_of(span.kind))] += self;
  if (span.kind == Kind::tti) {
    tti_ns_.push_back(length);
    tti_sim_self_ns_.push_back(self);
    return;
  }
  if (span.kind == Kind::stack_subframe) {
    auto& merged = merged_[span.key];
    merged[0] += self;
    merged[1] += static_cast<std::int64_t>(self_allocs);
    merged[2] += static_cast<std::int64_t>(total_allocs);
    return;
  }
  KindSamples& out = samples_[static_cast<std::size_t>(span.kind)];
  out.self_us.push_back(static_cast<double>(self) / 1000.0);
  out.self_allocs.push_back(static_cast<std::uint32_t>(self_allocs));
  out.total_allocs.push_back(static_cast<std::uint32_t>(total_allocs));
}

void Tracer::begin_tti(std::int64_t tti) {
  tti_ = tti;
  ++ttis_seen_;
  open(Kind::tti, 0);
}

std::int64_t Tracer::end_tti() {
  close();
  AllocPause pause;
  KindSamples& stack = samples_[static_cast<std::size_t>(Kind::stack_subframe)];
  for (const auto& [key, merged] : merged_) {
    (void)key;
    stack.self_us.push_back(static_cast<double>(merged[0]) / 1000.0);
    stack.self_allocs.push_back(static_cast<std::uint32_t>(merged[1]));
    stack.total_allocs.push_back(static_cast<std::uint32_t>(merged[2]));
  }
  merged_.clear();
  return tti_ns_.back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end == 0) continue;  // still open when the dump window ended
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tti\":%lld,\"key\":%u,\"span\":%zu,"
                 "\"parent\":%d}}",
                 first ? "" : ",\n", to_string(r.kind), to_string(layer_of(r.kind)),
                 static_cast<double>(r.start - origin) / 1000.0,
                 static_cast<double>(r.end - r.start) / 1000.0, static_cast<long long>(r.tti),
                 r.key, i, r.parent);
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
