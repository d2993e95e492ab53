// Statistics helpers shared by the metrics collector, the RIB, and the
// benchmark harnesses: running moments, EWMA, CDFs, time series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace flexran::util {

/// Running count, mean, total, min and max.
class RunningStats {
 public:
  void add(double sample);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double total() const { return total_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double total_ = 0.0;
};

/// Exponentially weighted moving average, alpha in (0, 1].
class Ewma {
 public:
  explicit Ewma(double alpha = 0.2) : alpha_(alpha) {}
  void add(double sample) {
    value_ = seeded_ ? alpha_ * sample + (1.0 - alpha_) * value_ : sample;
    seeded_ = true;
  }
  double value() const { return value_; }
  bool seeded() const { return seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Collects raw samples; computes empirical quantiles / a CDF on demand.
class SampleSet {
 public:
  void add(double sample) { samples_.push_back(sample); }
  double mean() const;
  /// q in [0, 1]; nearest-rank on the sorted samples.
  double quantile(double q) const;
  /// Sorted copy of the samples (the x-axis of an empirical CDF).
  std::vector<double> sorted() const;

 private:
  std::vector<double> samples_;
};

/// (time, value) series used for experiment outputs such as Fig. 11/12a.
class TimeSeries {
 public:
  struct Point {
    double time = 0.0;
    double value = 0.0;
  };

  void add(double time, double value) { points_.push_back({time, value}); }
  const std::vector<Point>& points() const { return points_; }
  /// Mean of values with time in [from, to).
  double mean_in(double from, double to) const;

 private:
  std::vector<Point> points_;
};

}  // namespace flexran::util
