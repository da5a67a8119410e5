#include "serving/load_gen.hpp"

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace trident::serving {

namespace {

/// sleep_until with a bounded spin tail: OS timers overshoot by tens of
/// microseconds, which distorts a sub-millisecond Poisson schedule; the
/// final stretch is spun on the steady clock instead.
void pace_until(Clock::time_point deadline, bool precise) {
  constexpr auto kSpinWindow = std::chrono::microseconds(150);
  if (!precise) {
    std::this_thread::sleep_until(deadline);
    return;
  }
  const auto sleep_deadline = deadline - kSpinWindow;
  if (Clock::now() < sleep_deadline) {
    std::this_thread::sleep_until(sleep_deadline);
  }
  while (Clock::now() < deadline) {
    // spin
  }
}

}  // namespace

LoadReport run_poisson_load(
    Server& server, const LoadGenConfig& config,
    const std::function<nn::Vector(int)>& make_input) {
  TRIDENT_REQUIRE(config.target_qps >= 0.0, "target_qps must be non-negative");
  TRIDENT_REQUIRE(config.requests >= 0, "requests must be non-negative");
  TRIDENT_REQUIRE(make_input != nullptr, "make_input must be callable");

  // Degenerate loads terminate immediately instead of hanging: a zero rate
  // means infinite inter-arrival gaps (nothing ever arrives), and zero
  // requests means an empty timeline.  Both yield an all-zero report.
  if (config.target_qps == 0.0 || config.requests == 0) {
    return LoadReport{};
  }

  // Fix the whole arrival timeline up front (open loop): arrival i happens
  // at start + Σ gaps, whatever the server does.
  Rng rng(config.seed);
  std::vector<double> arrival_s;
  arrival_s.reserve(static_cast<std::size_t>(config.requests));
  double t = 0.0;
  for (int i = 0; i < config.requests; ++i) {
    t += -std::log(1.0 - rng.uniform()) / config.target_qps;
    arrival_s.push_back(t);
  }

  LoadReport report;
  report.offered = config.requests;
  std::vector<std::future<Response>> futures;
  futures.reserve(static_cast<std::size_t>(config.requests));

  const Clock::time_point start = Clock::now();
  for (int i = 0; i < config.requests; ++i) {
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival_s[static_cast<std::size_t>(i)]));
    pace_until(deadline, config.precise_pacing);
    auto future = server.submit(make_input(i));
    if (future.has_value()) {
      futures.push_back(std::move(*future));
    } else {
      ++report.shed;
    }
  }

  const auto& ladder = telemetry::latency_buckets_seconds();
  telemetry::Histogram sojourn(ladder), queue_wait(ladder), service(ladder);
  for (auto& f : futures) {
    const Response r = f.get();
    sojourn.observe(r.timing.sojourn_s);
    queue_wait.observe(r.timing.queue_wait_s);
    service.observe(r.timing.service_s);
  }
  const Clock::time_point end = Clock::now();

  report.accepted = static_cast<int>(futures.size());
  report.duration_s = std::chrono::duration<double>(end - start).count();
  if (report.duration_s > 0.0) {
    report.offered_qps =
        static_cast<double>(report.offered) / report.duration_s;
    report.completed_qps =
        static_cast<double>(report.accepted) / report.duration_s;
  }
  report.sojourn = summarize(sojourn.snapshot());
  report.queue_wait = summarize(queue_wait.snapshot());
  report.service = summarize(service.snapshot());
  return report;
}

}  // namespace trident::serving
