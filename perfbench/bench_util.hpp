// Helpers of the repository benchmark that carry its rules: percentile
// selection, open-loop rung validity, and the bit-exact output oracle.
// Header-only and free of library dependencies, so selftest.cpp checks
// them on their own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- percentiles ----------------------------------------------------------

/// Nearest-rank index of quantile q in a sample of n: ceil(q·n) − 1.
[[nodiscard]] inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double r = std::ceil(q * static_cast<double>(n));
  const auto idx = static_cast<std::size_t>(std::max(r, 1.0)) - 1;
  return std::min(idx, n - 1);
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
[[nodiscard]] inline double quantile_sorted(const std::vector<double>& sorted,
                                            double q) {
  return sorted.empty() ? 0.0 : sorted[rank_index(sorted.size(), q)];
}

/// The tail percentile a sample supports: the highest of p50, p90, p99,
/// p99.9, p99.99, p99.999 that has at least `min_beyond` samples above its
/// rank.  `ok` is false when not even p50 qualifies.
struct TailPick {
  double q = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
  std::size_t count = 0;
  bool ok = false;
};

[[nodiscard]] inline TailPick supported_tail(const std::vector<double>& sorted,
                                             std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {0.5,   0.9,    0.99,
                                       0.999, 0.9999, 0.99999};
  TailPick pick;
  pick.count = sorted.size();
  for (double q : kLadder) {
    if (sorted.empty()) {
      break;
    }
    const std::size_t idx = rank_index(sorted.size(), q);
    const std::size_t beyond = sorted.size() - 1 - idx;
    if (beyond < min_beyond) {
      break;
    }
    pick = {q, sorted[idx], beyond, sorted.size(), true};
  }
  return pick;
}

/// Median, p90, p99 and the supported tail of one latency population.
struct LatencyStats {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  TailPick tail;
};

[[nodiscard]] inline LatencyStats summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencyStats s;
  s.count = samples.size();
  s.p50 = quantile_sorted(samples, 0.5);
  s.p90 = quantile_sorted(samples, 0.9);
  s.p99 = quantile_sorted(samples, 0.99);
  s.tail = supported_tail(samples);
  return s;
}

/// Median of a small set (the set-up repeats, per-rung figures).
[[nodiscard]] inline double median(std::vector<double> v) {
  return summarize(std::move(v)).p50;
}

// --- open-loop rung validity ---------------------------------------------

/// In-flight requests (sent − resolved) sampled during a rung.
struct BacklogSample {
  double t_s = 0.0;
  double in_flight = 0.0;
};

/// Least-squares growth of the in-flight count over the rung, in requests:
/// slope × observed span.  A stable queue fluctuates around a level
/// (growth ≈ 0); an overloaded one climbs for the whole rung.
[[nodiscard]] inline double backlog_growth(
    const std::vector<BacklogSample>& samples) {
  if (samples.size() < 3) {
    return 0.0;
  }
  double mt = 0.0;
  double my = 0.0;
  for (const auto& s : samples) {
    mt += s.t_s;
    my += s.in_flight;
  }
  mt /= static_cast<double>(samples.size());
  my /= static_cast<double>(samples.size());
  double sxy = 0.0;
  double sxx = 0.0;
  for (const auto& s : samples) {
    sxy += (s.t_s - mt) * (s.in_flight - my);
    sxx += (s.t_s - mt) * (s.t_s - mt);
  }
  if (sxx <= 0.0) {
    return 0.0;
  }
  return sxy / sxx * (samples.back().t_s - samples.front().t_s);
}

/// The limits one rung is judged against (fixed by the workload).
struct RungLimits {
  double p99_limit_us = 0.0;     ///< latency limit on the rung's p99
  double max_error_ratio = 0.0;  ///< (failed + shed + mismatched) / sent
  double max_backlog_growth = 0.0;  ///< in-flight growth over the rung
  double max_lag_p99_us = 0.0;   ///< generator lateness past due times
  double max_rate_error = 0.0;   ///< |offered / target − 1|
};

/// What one rung measured.
struct RungResult {
  double target_rps = 0.0;
  double offered_rps = 0.0;  ///< requests sent / rung duration
  double lag_p99_us = 0.0;   ///< generator lateness, p99
  std::size_t sent = 0;
  std::size_t ok = 0;        ///< kOk and bit-exact
  std::size_t errors = 0;    ///< shed + kFailed + oracle mismatches
  double backlog_growth = 0.0;
  LatencyStats latency;      ///< from due time, kOk responses
};

/// A rung is valid when the generator kept its schedule: it sent at the
/// target rate and was not late.  An invalid rung measures the generator,
/// not the system, and cannot count.
[[nodiscard]] inline bool generator_valid(const RungResult& r,
                                          const RungLimits& lim) {
  if (r.target_rps <= 0.0 || r.sent == 0) {
    return false;
  }
  return std::abs(r.offered_rps / r.target_rps - 1.0) <= lim.max_rate_error &&
         r.lag_p99_us <= lim.max_lag_p99_us;
}

[[nodiscard]] inline double error_ratio(const RungResult& r) {
  return r.sent == 0 ? 1.0
                     : static_cast<double>(r.errors) /
                           static_cast<double>(r.sent);
}

/// A rung meets the SLO when it is valid, its p99 is within the limit, its
/// error ratio is within its limit, and its backlog does not grow.
[[nodiscard]] inline bool meets_slo(const RungResult& r, const RungLimits& lim) {
  return generator_valid(r, lim) && r.latency.count > 0 &&
         r.latency.p99 <= lim.p99_limit_us &&
         error_ratio(r) <= lim.max_error_ratio &&
         r.backlog_growth <= lim.max_backlog_growth;
}

/// The rung with the highest target rate among those that meet the SLO
/// (nullptr when none does): max_rps_at_slo is its rate.
[[nodiscard]] inline const RungResult* best_rung_at_slo(
    const std::vector<RungResult>& rungs, const RungLimits& lim) {
  const RungResult* best = nullptr;
  for (const auto& r : rungs) {
    if (meets_slo(r, lim) && (best == nullptr || r.target_rps > best->target_rps)) {
      best = &r;
    }
  }
  return best;
}

// --- output oracle --------------------------------------------------------

/// True when both outputs have the same length and the same bits.
[[nodiscard]] inline bool same_bits(std::span<const double> a,
                                    std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// Reference outputs per input of a seeded pool, one table per tier.
class Oracle {
 public:
  explicit Oracle(std::size_t tiers) : refs_(tiers) {}

  void add(std::size_t tier, std::vector<double> reference) {
    refs_.at(tier).push_back(std::move(reference));
  }

  [[nodiscard]] bool matches(std::size_t tier, std::size_t index,
                             std::span<const double> output) const {
    const auto& table = refs_.at(tier);
    return index < table.size() && same_bits(table[index], output);
  }

  [[nodiscard]] std::size_t size(std::size_t tier) const {
    return refs_.at(tier).size();
  }

 private:
  std::vector<std::vector<std::vector<double>>> refs_;
};

// --- process ----------------------------------------------------------------

/// Peak resident set of this process (VmHWM), in MB; 0 when unreadable.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
