// Small statistics toolkit used by the benchmark harnesses: running moments
// and geometric means (the paper reports geomean speedups in Figs. 3 and 6).
// Latency distributions are obs::LatencyHistogram (src/obs/metrics.hpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace atm {

/// Welford running mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean of a series of strictly positive values.
[[nodiscard]] double geomean(const std::vector<double>& values) noexcept;

}  // namespace atm
