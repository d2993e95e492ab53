#include "util/stats.h"

#include <algorithm>

namespace flexran::util {

void RunningStats::add(double sample) {
  ++count_;
  total_ += sample;
  mean_ += (sample - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  auto sorted_samples = sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted_samples.size() - 1) + 0.5);
  return sorted_samples[rank];
}

std::vector<double> SampleSet::sorted() const {
  std::vector<double> out = samples_;
  std::sort(out.begin(), out.end());
  return out;
}

double TimeSeries::mean_in(double from, double to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : points_) {
    if (p.time >= from && p.time < to) {
      sum += p.value;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace flexran::util
