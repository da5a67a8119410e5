// Latency summaries and SLO accounting for the serving runtime.
//
// Every serving latency is recorded once, in a telemetry::Histogram on the
// fixed latency ladder (telemetry::latency_buckets_seconds(), γ = 1.02).
// It is plain library code, so latencies are reported with telemetry
// compiled out too.  A summary's count, mean and max are exact and its
// percentiles within γ − 1 of the exact order statistic.  The canary's
// exact windows keep their own samples and use exact_quantile.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "telemetry/metrics.hpp"

namespace trident::serving {

/// Summary statistics of one latency population, in seconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

/// Summary of one latency histogram: count and max exact, mean = sum /
/// count, p50/p90/p99 from HistogramSnapshot::quantile; all zeros when the
/// histogram is empty.
[[nodiscard]] LatencySummary summarize(const telemetry::HistogramSnapshot& h);

/// Exact order-statistic quantile of one sample window: sorts a copy and
/// returns element floor(q * (n-1)).  Total over every window shape the
/// canary gate can see — empty (nullopt), singleton (its only element for
/// every q), all-tied (the tied value) — so callers never divide by zero
/// or read past the end on a degenerate window.
[[nodiscard]] std::optional<double> exact_quantile(std::vector<double> window,
                                                   double q);

/// Outcome of comparing one latency quantile across two observation
/// windows (incumbent vs candidate).  The windows may hold unequal sample
/// counts — each side's quantile is its own exact order statistic — but a
/// comparison is only `comparable` when BOTH windows carry at least
/// `min_samples` observations.  A degenerate window (empty, singleton
/// below the floor, or simply too small) yields comparable == false and a
/// NaN ratio: a gate built on this cannot promote or roll back on noise,
/// it must wait for more data.
struct WindowComparison {
  bool comparable = false;
  std::uint64_t incumbent_count = 0;
  std::uint64_t candidate_count = 0;
  double incumbent_q_s = 0.0;  ///< quantile of the incumbent window
  double candidate_q_s = 0.0;  ///< quantile of the candidate window
  /// candidate_q_s / incumbent_q_s; NaN when not comparable, +inf when the
  /// incumbent quantile is exactly zero and the candidate's is not.
  double ratio = 0.0;
};

/// Compares quantile `q` (default p99) of two windows with a per-window
/// sample floor.  `min_samples` is clamped to >= 1 so an empty window can
/// never be comparable.
[[nodiscard]] WindowComparison compare_latency_windows(
    const std::vector<double>& incumbent, const std::vector<double>& candidate,
    std::size_t min_samples, double q = 0.99);

}  // namespace trident::serving
