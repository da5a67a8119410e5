// Tests of the benchmark's own rules (bench_util.hpp).  Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on a failure.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i + 1);
  }
  return v;
}

void percentile_selection() {
  // 1000 samples: p99 sits at rank 990 with exactly 10 above it; p99.9
  // would leave only 1 above, so p99 is the highest supported.
  const TailPick p = supported_tail(ramp(1000));
  check(p.ok && p.q == 0.99 && p.value == 990.0 && p.beyond == 10 &&
            p.count == 1000,
        "1000 samples report p99 = 990 with 10 beyond");
  // 999 samples: p99 leaves 9 above, so p90 is the highest supported.
  const TailPick q = supported_tail(ramp(999));
  check(q.ok && q.q == 0.9 && q.beyond >= 10, "999 samples fall back to p90");
  check(supported_tail(ramp(10000)).q == 0.999, "10000 samples reach p99.9");
  check(!supported_tail(ramp(15)).ok, "15 samples support no percentile");
  check(supported_tail(ramp(21)).q == 0.5, "21 samples support only p50");
  check(quantile_sorted(ramp(100), 0.5) == 50.0 &&
            quantile_sorted(ramp(100), 0.99) == 99.0,
        "nearest-rank quantiles of 1..100");
  const LatencyStats s = summarize({5.0, 1.0, 3.0});
  check(s.count == 3 && s.p50 == 3.0 && s.p99 == 5.0,
        "summarize sorts its sample");
}

RungResult good_rung() {
  RungResult r;
  r.target_rps = 1000.0;
  r.offered_rps = 1010.0;
  r.lag_p99_us = 120.0;
  r.sent = 2000;
  r.ok = 2000;
  r.latency.count = 2000;
  r.latency.p99 = 4000.0;
  return r;
}

constexpr RungLimits kLimits{10'000.0, 0.001, 64.0, 1'000.0, 0.1};

void rung_validity() {
  std::vector<BacklogSample> flat;
  std::vector<BacklogSample> climbing;
  for (int i = 0; i < 40; ++i) {
    const double t = 0.05 * i;
    flat.push_back({t, (i % 2 == 0) ? 3.0 : 9.0});
    climbing.push_back({t, 100.0 * t});
  }
  check(backlog_growth(flat) < 1.0, "a fluctuating backlog does not grow");
  check(std::abs(backlog_growth(climbing) - 195.0) < 1e-6,
        "a climbing backlog grows by slope x span");

  RungResult r = good_rung();
  check(meets_slo(r, kLimits), "a clean rung meets the SLO");
  r.backlog_growth = backlog_growth(climbing);
  check(!meets_slo(r, kLimits), "a growing backlog fails the rung");

  r = good_rung();
  r.lag_p99_us = 5'000.0;
  check(!generator_valid(r, kLimits) && !meets_slo(r, kLimits),
        "a late generator invalidates the rung");
  r = good_rung();
  r.offered_rps = 800.0;
  check(!generator_valid(r, kLimits), "an under-sending generator is invalid");
  r = good_rung();
  r.latency.p99 = 20'000.0;
  check(!meets_slo(r, kLimits), "p99 over the limit fails the rung");
  r = good_rung();
  r.errors = 3;
  check(!meets_slo(r, kLimits), "errors over the limit fail the rung");

  std::vector<RungResult> ladder = {good_rung(), good_rung(), good_rung()};
  ladder[1].target_rps = ladder[1].offered_rps = 2000.0;
  ladder[2].target_rps = ladder[2].offered_rps = 3000.0;
  ladder[2].backlog_growth = 500.0;
  const RungResult* best = best_rung_at_slo(ladder, kLimits);
  check(best != nullptr && best->target_rps == 2000.0,
        "max rate at SLO is the highest passing rung");
  ladder[0].errors = ladder[1].errors = 100;
  check(best_rung_at_slo(ladder, kLimits) == nullptr,
        "no passing rung, no max rate");
}

void oracle_catches_one_bit() {
  Oracle oracle(2);
  const std::vector<double> ref = {0.125, -3.5, 1e-300, 42.0};
  oracle.add(0, ref);
  oracle.add(1, {1.0});
  check(oracle.matches(0, 0, ref), "identical output matches");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> flipped = ref;
      flipped[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(ref[i]) ^
                                         (std::uint64_t{1} << bit));
      if (oracle.matches(0, 0, flipped)) {
        check(false, "a single flipped bit went unnoticed");
        return;
      }
    }
  }
  check(true, "every single flipped bit is caught");
  check(!oracle.matches(0, 0, std::vector<double>{0.125, -3.5, 1e-300}),
        "a short output fails");
  check(!oracle.matches(1, 0, ref), "the other tier's reference differs");
  check(!oracle.matches(0, 1, ref), "an unknown input index fails");
  check(!same_bits(std::vector<double>{0.0}, std::vector<double>{-0.0}),
        "+0 and -0 differ in bits");
}

}  // namespace

int main() {
  percentile_selection();
  rung_validity();
  oracle_catches_one_bit();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
