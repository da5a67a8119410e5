// SLO burn-rate health monitor: multi-window classification, hysteresis,
// gauge limits, registry publication, and the transition callback.
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::telemetry {
namespace {

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(false); }
  void TearDown() override { set_enabled(false); }
};

/// Cumulative-counter sample builder for synthetic scenarios.
HealthSample sample(double t_s, std::uint64_t completed,
                    std::uint64_t slo_violations = 0, std::uint64_t shed = 0,
                    std::uint64_t degraded = 0) {
  HealthSample s;
  s.t_s = t_s;
  s.completed = completed;
  s.slo_violations = slo_violations;
  s.shed = shed;
  s.degraded = degraded;
  return s;
}

TEST_F(HealthTest, StateLabelsAreStable) {
  EXPECT_STREQ(to_string(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(to_string(HealthState::kWarning), "warning");
  EXPECT_STREQ(to_string(HealthState::kCritical), "critical");
}

TEST_F(HealthTest, CleanTrafficStaysHealthy) {
  HealthMonitor mon;
  for (int t = 0; t <= 10; ++t) {
    const HealthReport r =
        mon.update(sample(t, 100u * static_cast<std::uint64_t>(t)));
    EXPECT_EQ(r.state, HealthState::kHealthy);
    EXPECT_DOUBLE_EQ(r.slo.short_burn, 0.0);
    EXPECT_DOUBLE_EQ(r.shed.long_burn, 0.0);
  }
  EXPECT_EQ(mon.state(), HealthState::kHealthy);
}

TEST_F(HealthTest, ZeroTrafficBurnsNothing) {
  HealthMonitor mon;
  const HealthReport r = mon.update(sample(0.0, 0));
  EXPECT_EQ(r.state, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(r.slo.short_burn, 0.0);
  EXPECT_DOUBLE_EQ(r.shed.short_burn, 0.0);
  EXPECT_DOUBLE_EQ(r.degraded.short_burn, 0.0);
}

// The acceptance scenario: a shed storm flips healthy -> critical
// immediately, and the state returns to healthy once the storm has been
// out of the short window for the recovery period.
TEST_F(HealthTest, ShedStormFlipsCriticalThenRecovers) {
  HealthMonitor mon;  // defaults: 5s/60s windows, 1% budgets, 10s recovery
  std::vector<std::pair<HealthState, HealthState>> transitions;
  mon.on_transition([&](HealthState from, HealthState to,
                        const HealthReport&) {
    transitions.emplace_back(from, to);
  });

  mon.update(sample(0.0, 0));
  // Storm: half of all offered traffic is shed (burn 50x budget, both
  // windows — the long window falls back to the whole observed history).
  for (int t = 1; t <= 5; ++t) {
    const auto n = 100u * static_cast<std::uint64_t>(t);
    const HealthReport r = mon.update(sample(t, n, 0, n));
    EXPECT_EQ(r.state, HealthState::kCritical) << "t=" << t;
    EXPECT_GE(r.shed.short_burn, 10.0);
    EXPECT_GE(r.shed.long_burn, 10.0);
  }
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].first, HealthState::kHealthy);
  EXPECT_EQ(transitions[0].second, HealthState::kCritical);

  // Storm over: shedding stops, clean completions resume.  Hysteresis
  // holds the state critical while the storm is still inside the short
  // window and for recovery_s after the last breach.
  HealthState at_12 = HealthState::kHealthy;
  for (int t = 6; t <= 25; ++t) {
    const auto n = 500u + 100u * static_cast<std::uint64_t>(t - 5);
    const HealthReport r = mon.update(sample(t, n, 0, 500));
    if (t == 12) {
      at_12 = r.state;
    }
  }
  // At t=12 the raw classification is already healthy (no sheds in the
  // short window) but the recovery clock has not expired yet.
  EXPECT_EQ(at_12, HealthState::kCritical);
  EXPECT_EQ(mon.state(), HealthState::kHealthy);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1].first, HealthState::kCritical);
  EXPECT_EQ(transitions[1].second, HealthState::kHealthy);
}

TEST_F(HealthTest, ShortWindowAloneOnlyWarns) {
  // Long history of clean traffic, then a short violation spike: the
  // short window burns far past critical_burn but the long window does
  // not — multi-window gating caps the state at warning.
  HealthMonitor mon;
  for (int t = 0; t <= 60; ++t) {
    mon.update(sample(t, 1000u * static_cast<std::uint64_t>(t)));
  }
  HealthReport last;
  for (int t = 61; t <= 65; ++t) {
    const auto extra = 100u * static_cast<std::uint64_t>(t - 60);
    last = mon.update(sample(t, 60000u + extra, extra));
  }
  EXPECT_GE(last.slo.short_burn, 10.0);
  EXPECT_LT(last.slo.long_burn, 10.0);
  EXPECT_EQ(last.state, HealthState::kWarning);
  EXPECT_EQ(last.reason, "short-window budget burning");
}

TEST_F(HealthTest, GaugeLimitsEscalateAndDoubleBreachIsCritical) {
  HealthConfig cfg;
  cfg.p99_limit_s = 0.1;
  {
    HealthMonitor mon(cfg);
    HealthSample s = sample(0.0, 100);
    s.p99_s = 0.15;  // over the limit, under 2x
    EXPECT_EQ(mon.update(s).state, HealthState::kWarning);
  }
  {
    HealthMonitor mon(cfg);
    HealthSample s = sample(0.0, 100);
    s.p99_s = 0.25;  // over 2x
    const HealthReport r = mon.update(s);
    EXPECT_EQ(r.state, HealthState::kCritical);
    EXPECT_EQ(r.reason, "gauge limit exceeded 2x");
  }
  {
    HealthConfig energy_cfg;
    energy_cfg.energy_limit_j = 1e-6;
    HealthMonitor mon(energy_cfg);
    HealthSample s = sample(0.0, 100);
    s.energy_per_inference_j = 2.5e-6;
    EXPECT_EQ(mon.update(s).state, HealthState::kCritical);
  }
}

TEST_F(HealthTest, CounterResetIsToleratedAsZeroDelta) {
  HealthMonitor mon;
  mon.update(sample(0.0, 1000, 500));  // huge cumulative base
  // Registry reset: all counters rewind.  The monitor must not compute a
  // negative (wrapped) delta and panic into critical.
  const HealthReport r = mon.update(sample(1.0, 10, 0));
  EXPECT_EQ(r.state, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(r.slo.short_burn, 0.0);
}

TEST_F(HealthTest, NonMonotoneTimestampsAreClamped) {
  HealthMonitor mon;
  mon.update(sample(5.0, 100));
  // A caller clock that steps backwards must not corrupt the windows.
  const HealthReport r = mon.update(sample(2.0, 120, 120));
  EXPECT_EQ(r.raw, HealthState::kCritical);  // still classifies sanely
}

TEST_F(HealthTest, PublishesStateGaugesAndTransitionCounter) {
  if (!compiled_in()) {
    GTEST_SKIP() << "built with -DTRIDENT_TELEMETRY=OFF";
  }
  set_enabled(true);
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t transitions_before =
      reg.snapshot().counter_value("trident_health_transitions_total");

  HealthMonitor mon;
  mon.update(sample(0.0, 0));
  for (int t = 1; t <= 3; ++t) {
    const auto n = 100u * static_cast<std::uint64_t>(t);
    mon.update(sample(t, n, 0, n));  // shed storm -> critical
  }
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge_value("trident_health_state"), 2.0);
  EXPECT_GE(snap.gauge_value("trident_health_shed_burn_short"), 10.0);
  EXPECT_GE(snap.gauge_value("trident_health_shed_burn_long"), 10.0);
  EXPECT_GE(reg.snapshot().counter_value("trident_health_transitions_total"),
            transitions_before + 1);
}

TEST_F(HealthTest, SampleRegistryReadsServingMetrics) {
  if (!compiled_in()) {
    GTEST_SKIP() << "built with -DTRIDENT_TELEMETRY=OFF";
  }
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  reg.counter("trident_serving_requests_completed_total").add(7);
  reg.counter("trident_serving_slo_violations_total").add(2);
  reg.counter("trident_serving_requests_shed_total").add(3);
  reg.counter("trident_serving_requests_failed_total").add(1);
  reg.histogram("trident_serving_sojourn_seconds", latency_buckets_seconds())
      .observe(0.125);

  const HealthSample s = HealthMonitor::sample_registry(42.0);
  EXPECT_DOUBLE_EQ(s.t_s, 42.0);
  EXPECT_GE(s.completed, 7u);
  EXPECT_GE(s.slo_violations, 2u);
  EXPECT_GE(s.shed, 3u);
  EXPECT_GE(s.degraded, 1u);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.125);
  // Energy is ledger-derived; the registry sampler leaves it for callers.
  EXPECT_DOUBLE_EQ(s.energy_per_inference_j, 0.0);
}

/// A one-replica server over a small seeded model.
serving::ServerConfig small_server() {
  serving::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  return cfg;
}

nn::Mlp small_model() {
  Rng rng(0x5eedu);
  return nn::Mlp({4, 8, 3}, nn::Activation::kGstPhotonic, rng);
}

TEST_F(HealthTest, SampleRegistryCountsAdmissionBlipSheds) {
  MetricsRegistry::global().reset_values();
  serving::ServerConfig cfg = small_server();
  cfg.admission_blip = [](std::uint64_t i) { return i % 2 == 0; };
  serving::Server server(small_model(), cfg);
  std::uint64_t blipped = 0;
  for (int i = 0; i < 10; ++i) {
    auto fut = server.submit(nn::Vector{0.1, -0.2, 0.3, -0.4});
    if (fut) {
      (void)fut->get();
    } else {
      ++blipped;
    }
  }
  EXPECT_EQ(blipped, 5u);
  EXPECT_EQ(server.stats().shed, blipped);
  // The sampler reads the registry, which reads the server's own shed
  // count — admission-control and chaos-blip sheds alike.
  EXPECT_GE(HealthMonitor::sample_registry(0.0).shed, blipped);
}

TEST_F(HealthTest, SampleRegistryP99IsTheMergedP99OfLiveServers) {
  MetricsRegistry::global().reset_values();
  // Two live servers with different latency populations: `slow` holds
  // every request for its whole batching window.
  serving::Server fast(small_model(), small_server());
  serving::ServerConfig slow_cfg = small_server();
  slow_cfg.max_batch = 64;
  slow_cfg.max_wait = std::chrono::microseconds(2000);
  serving::Server slow(small_model(), slow_cfg);
  // The same sojourns observed into one histogram on the same ladder.
  Histogram expected(latency_buckets_seconds());
  const auto serve = [&expected](serving::Server& server, int n) {
    for (int i = 0; i < n; ++i) {
      auto fut = server.submit(nn::Vector{0.1, -0.2, 0.3, -0.4});
      ASSERT_TRUE(fut.has_value());
      expected.observe(fut->get().timing.sojourn_s);
    }
  };
  serve(fast, 40);
  serve(slow, 10);
  // Per-server queries have no side effect on what the monitor reads.
  for (int i = 0; i < 3; ++i) {
    (void)fast.stats();
    (void)slow.stats();
  }
  const double p99 = expected.snapshot().quantile(0.99);
  EXPECT_EQ(HealthMonitor::sample_registry(0.0).p99_s, p99);
  (void)slow.stats();
  EXPECT_EQ(HealthMonitor::sample_registry(0.0).p99_s, p99);
}

TEST_F(HealthTest, SampleRegistrySumsOwnedCountersWithLiveServers) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  reg.counter("trident_serving_requests_completed_total").add(7);
  serving::Server server(small_model(), small_server());
  for (int i = 0; i < 3; ++i) {
    auto fut = server.submit(nn::Vector{0.1, -0.2, 0.3, -0.4});
    ASSERT_TRUE(fut.has_value());
    (void)fut->get();
  }
  EXPECT_EQ(HealthMonitor::sample_registry(0.0).completed, 10u);
  // The owned counter and the server's collector share the name; the
  // snapshot still lists every name once, in strictly ascending order.
  const MetricsSnapshot snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

}  // namespace
}  // namespace trident::telemetry
