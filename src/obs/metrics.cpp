#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace flexran::obs {

namespace {

void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double updated = std::bit_cast<double>(expected) + delta;
    if (bits.compare_exchange_weak(expected, std::bit_cast<std::uint64_t>(updated),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v)).ptr);
    return;
  }
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%.6g", v)));
}

/// Appends `name` + `suffix`, then a label block holding `labels`, `more`
/// and the pre-rendered `extra` (no block when all three are empty).
void append_identity(std::string& out, std::string_view name, std::string_view suffix,
                     std::initializer_list<Label> labels, std::span<const Label> more,
                     std::string_view extra, bool quote) {
  out += name;
  out += suffix;
  char separator = '{';
  const auto append = [&](const Label& label) {
    out.push_back(separator);
    separator = ',';
    out += label.first;
    out.push_back('=');
    if (quote) out.push_back('"');
    out += label.second;
    if (quote) out.push_back('"');
  };
  for (const Label& label : labels) append(label);
  for (const Label& label : more) append(label);
  if (!extra.empty()) {
    out.push_back(separator);
    separator = ',';
    out += extra;
  }
  if (separator == ',') out.push_back('}');
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) bounds_.push_back(1.0);
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double sample) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, sample);
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target, then linear interpolation across the bucket that
  // contains it (the standard fixed-bucket estimator).
  const double rank = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // overflow: clamp
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double fraction = std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      return lo + fraction * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

std::vector<double> exponential_bounds(double start, double factor, std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

void Sink::line(std::string_view name, std::string_view suffix,
                std::initializer_list<Label> labels, std::string_view extra, double v) {
  append_identity(out_, name, suffix, labels, collector_labels_, extra, true);
  out_.push_back(' ');
  append_number(out_, v);
  out_.push_back('\n');
}

void Sink::json_key(std::string_view name, std::initializer_list<Label> labels) {
  std::string key;
  append_identity(key, name, {}, labels, collector_labels_, {}, false);
  if (out_.size() > 1) out_.push_back(',');
  append_json_string(out_, key);
  out_.push_back(':');
}

void Sink::value(std::string_view name, std::initializer_list<Label> labels, double v) {
  ++series_;
  if (format_ == Format::prometheus) line(name, {}, labels, {}, v);
  if (format_ != Format::json) return;
  json_key(name, labels);
  append_number(out_, v);
}

void Sink::histogram(std::string_view name, std::initializer_list<Label> labels,
                     const Histogram& h) {
  ++series_;
  if (format_ == Format::json) {
    json_key(name, labels);
    const std::pair<std::string_view, double> members[] = {
        {"{\"count\":", static_cast<double>(h.count())},
        {",\"sum\":", h.sum()},
        {",\"p50\":", h.p50()},
        {",\"p95\":", h.p95()},
        {",\"p99\":", h.p99()}};
    for (const auto& [prefix, v] : members) {
      out_ += prefix;
      append_number(out_, v);
    }
    out_.push_back('}');
  }
  if (format_ != Format::prometheus) return;
  line(name, "_count", labels, {}, static_cast<double>(h.count()));
  line(name, "_sum", labels, {}, h.sum());
  line(name, {}, labels, "quantile=\"0.5\"", h.p50());
  line(name, {}, labels, "quantile=\"0.95\"", h.p95());
  line(name, {}, labels, "quantile=\"0.99\"", h.p99());
}

MetricsRegistry::Registration& MetricsRegistry::Registration::operator=(
    Registration&& other) noexcept {
  if (this != &other) {
    if (registry_ != nullptr) registry_->remove(id_);
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = other.id_;
  }
  return *this;
}

MetricsRegistry::Registration::~Registration() {
  if (registry_ != nullptr) registry_->remove(id_);
}

MetricsRegistry::Registration MetricsRegistry::add_collector(
    Collector collector, std::vector<std::pair<std::string, std::string>> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  collectors_.push_back({id, std::move(collector), std::move(labels)});
  return Registration(this, id);
}

void MetricsRegistry::remove(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(collectors_, [id](const Entry& entry) { return entry.id == id; });
}

std::size_t MetricsRegistry::export_to(Sink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Label> labels;
  for (const Entry& entry : collectors_) {
    labels.assign(entry.labels.begin(), entry.labels.end());
    sink.collector_labels_ = labels;
    entry.collect(sink);
  }
  return sink.series_;
}

std::size_t MetricsRegistry::size() const {
  std::string unused;
  Sink sink(Sink::Format::count, unused);
  return export_to(sink);
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  Sink sink(Sink::Format::prometheus, out);
  export_to(sink);
  return out;
}

std::string MetricsRegistry::json(std::int64_t t_us) const {
  std::string out = "{";
  if (t_us >= 0) {
    out += "\"t_us\":";
    append_number(out, static_cast<double>(t_us));
  }
  Sink sink(Sink::Format::json, out);
  export_to(sink);
  out.push_back('}');
  return out;
}

}  // namespace flexran::obs
