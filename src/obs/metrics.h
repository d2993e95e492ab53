// Unified observability layer (docs/observability.md): a process-wide
// metrics registry of collectors, plus the fixed-bucket latency histogram
// their owners keep.
//
// A collector is one callback per owner (a master shard, the Coordinator,
// the scenario testbed) that writes every series the owner currently
// holds into a Sink when the registry exports. Nothing is registered per
// agent, link or app: a series exists exactly while its owner holds the
// state behind it, and the counting hot paths gain no instruction. Export
// formats: a Prometheus-style text snapshot and a JSON object (one flat
// map keyed by series identity).
//
// A series identity is a name plus an optional label block,
// `name{key=value,...}` (values unquoted in the JSON keys;
// prometheus_text() adds the quoting).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flexran::obs {

/// Fixed-bucket latency histogram. Bucket `i` counts samples in
/// (bounds[i-1], bounds[i]]; one implicit overflow bucket catches samples
/// above the last bound. observe() is a branch-free-ish binary search plus
/// two relaxed atomic adds -- no locks, callable concurrently.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double sample);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// q in [0, 1]; linear interpolation inside the selected bucket. Returns
  /// 0 on an empty histogram; overflow-bucket quantiles clamp to the last
  /// bound (the histogram cannot resolve beyond it).
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }


 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // bit pattern of the double sum
};

/// `count` bounds starting at `start`, each `factor` times the previous --
/// the usual latency-bucket layout (e.g. 10us .. ~10ms for factor 2).
std::vector<double> exponential_bounds(double start, double factor, std::size_t count);

/// One label of a series identity; both strings are borrowed for the call.
using Label = std::pair<std::string_view, std::string_view>;

/// What a collector writes its series into at export time. Each value() or
/// histogram() call is one series. The registry appends the collector's
/// own labels (e.g. `shard`) after the ones given here.
class Sink {
 public:
  /// One counter or gauge.
  void value(std::string_view name, std::initializer_list<Label> labels, double v);
  /// One histogram: Prometheus `_count`, `_sum` and quantile lines, or a
  /// nested JSON object.
  void histogram(std::string_view name, std::initializer_list<Label> labels,
                 const Histogram& h);

 private:
  friend class MetricsRegistry;
  enum class Format { count, prometheus, json };
  Sink(Format format, std::string& out) : format_(format), out_(out) {}

  /// One Prometheus line: `name` + `suffix`, the label block (the call's
  /// labels, the collector's, then `extra` already rendered) and `v`.
  void line(std::string_view name, std::string_view suffix, std::initializer_list<Label> labels,
            std::string_view extra, double v);
  /// Starts a JSON member keyed by the series identity.
  void json_key(std::string_view name, std::initializer_list<Label> labels);

  Format format_;
  std::string& out_;
  std::span<const Label> collector_labels_;
  std::size_t series_ = 0;
};

/// Writes all of one owner's series.
using Collector = std::function<void(Sink&)>;

/// The process's collectors and the two renderers. Registration and export
/// take a mutex; an export runs every collector under it, so a collector
/// must not register or export itself.
class MetricsRegistry {
 public:
  /// Keeps a collector registered; destroying (or reassigning) it
  /// unregisters the collector. An owner holds it as its last member, so
  /// no export can reach the owner once its destruction has begun.
  class Registration {
   public:
    Registration() = default;
    Registration& operator=(Registration&& other) noexcept;
    ~Registration();

   private:
    friend class MetricsRegistry;
    Registration(MetricsRegistry* registry, std::uint64_t id) : registry_(registry), id_(id) {}
    MetricsRegistry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// `labels` are appended to every series the collector writes. The
  /// registry must outlive the returned handle.
  [[nodiscard]] Registration add_collector(
      Collector collector, std::vector<std::pair<std::string, std::string>> labels = {});

  /// Series exported right now (a histogram counts as one).
  std::size_t size() const;

  /// Prometheus text exposition: one `name{labels} value` line per series;
  /// a histogram expands to `name_count{labels}`, `name_sum{labels}` and
  /// `name{labels,quantile="q"}` lines.
  std::string prometheus_text() const;
  /// One flat JSON object; histograms render as nested objects with count,
  /// sum, p50/p95/p99. `t_us >= 0` adds a "t_us" timestamp member.
  std::string json(std::int64_t t_us = -1) const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    Collector collect;
    std::vector<std::pair<std::string, std::string>> labels;
  };

  /// Runs every collector into `sink`; returns the series written.
  std::size_t export_to(Sink& sink) const;
  void remove(std::uint64_t id);

  mutable std::mutex mu_;
  std::vector<Entry> collectors_;
  std::uint64_t next_id_ = 1;
};

}  // namespace flexran::obs
