#include "serving/slo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace trident::serving {

std::optional<double> exact_quantile(std::vector<double> window, double q) {
  if (window.empty()) {
    return std::nullopt;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::sort(window.begin(), window.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(window.size() - 1));
  return window[idx];
}

WindowComparison compare_latency_windows(const std::vector<double>& incumbent,
                                         const std::vector<double>& candidate,
                                         std::size_t min_samples, double q) {
  WindowComparison cmp;
  cmp.incumbent_count = incumbent.size();
  cmp.candidate_count = candidate.size();
  const std::size_t floor_n = std::max<std::size_t>(min_samples, 1);
  if (incumbent.size() < floor_n || candidate.size() < floor_n) {
    cmp.ratio = std::numeric_limits<double>::quiet_NaN();
    return cmp;
  }
  cmp.comparable = true;
  cmp.incumbent_q_s = *exact_quantile(incumbent, q);
  cmp.candidate_q_s = *exact_quantile(candidate, q);
  if (cmp.incumbent_q_s == 0.0) {
    cmp.ratio = cmp.candidate_q_s == 0.0
                    ? 1.0
                    : std::numeric_limits<double>::infinity();
  } else {
    cmp.ratio = cmp.candidate_q_s / cmp.incumbent_q_s;
  }
  return cmp;
}

LatencySummary summarize(const telemetry::HistogramSnapshot& h) {
  LatencySummary s;
  if (h.count == 0) {
    return s;
  }
  s.count = h.count;
  s.mean_s = h.sum / static_cast<double>(h.count);
  s.p50_s = h.quantile(0.50);
  s.p90_s = h.quantile(0.90);
  s.p99_s = h.quantile(0.99);
  s.max_s = h.max;
  return s;
}

}  // namespace trident::serving
