// Small statistics helpers for experiment reporting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace trident {

/// Single-pass running statistics (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Folds in a population of `n` samples summarised by its mean, sample
  /// variance and extremes, as if each had been add()ed (Chan, Golub &
  /// LeVeque's pairwise update).  Count and extremes are exact; the mean
  /// and variance agree with sequential add() to rounding.
  void combine(std::size_t n, double mean, double variance, double min,
               double max) {
    if (n == 0) {
      return;
    }
    const auto a = static_cast<double>(n_);
    const auto b = static_cast<double>(n);
    const double delta = mean - mean_;
    n_ += n;
    mean_ = a == 0.0 ? mean : mean_ + delta * b / (a + b);
    const double m2 = n > 1 ? variance * (b - 1.0) : 0.0;
    m2_ += m2 + delta * delta * a * b / (a + b);
    min_ = std::min(min_, min);
    max_ = std::max(max_, max);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  /// Smallest sample seen; NaN when no sample has been added yet (the
  /// internal ±inf sentinels never leak to callers — exporters rely on
  /// this to tell "empty" apart from genuinely infinite observations).
  [[nodiscard]] double min() const {
    return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  /// Largest sample seen; NaN when `count() == 0`.
  [[nodiscard]] double max() const {
    return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean; all inputs must be positive.  Used for the paper's
/// "on average" cross-model improvement figures.
[[nodiscard]] inline double geomean(std::span<const double> xs) {
  TRIDENT_REQUIRE(!xs.empty(), "geomean of empty range");
  double log_sum = 0.0;
  for (double x : xs) {
    TRIDENT_REQUIRE(x > 0.0, "geomean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Arithmetic mean.
[[nodiscard]] inline double mean(std::span<const double> xs) {
  TRIDENT_REQUIRE(!xs.empty(), "mean of empty range");
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

/// The paper reports improvements as "A improves over B by P%" where
/// P = (B - A)/A × 100 for costs (energy, latency: smaller is better), i.e.
/// percentages can exceed 100% ("reduces latency by 1413%").  This helper
/// matches that convention.
[[nodiscard]] inline double improvement_percent(double ours, double theirs) {
  TRIDENT_REQUIRE(ours > 0.0, "cost must be positive");
  return (theirs - ours) / ours * 100.0;
}

/// Relative error |a - b| / |b|.
[[nodiscard]] inline double relative_error(double a, double b) {
  return std::abs(a - b) / std::abs(b);
}

}  // namespace trident
