// Telemetry subsystem: registry semantics, span recording, exporter
// formats, the runtime switch, and the ledger-mirror exactness contract.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::telemetry {
namespace {

/// Restores the global switch and drains the trace buffer around each test
/// (the registry and buffer are process-wide singletons).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    TraceBuffer::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    TraceBuffer::global().clear();
  }
};

/// Tests that need the runtime switch to actually flip can't run when the
/// subsystem is compiled out (set_enabled is a no-op there).
#define TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT()                   \
  do {                                                             \
    if (!compiled_in()) {                                          \
      GTEST_SKIP() << "built with -DTRIDENT_TELEMETRY=OFF";        \
    }                                                              \
  } while (false)

// --- registry ---------------------------------------------------------------

TEST_F(TelemetryTest, CounterAccumulatesAndResets) {
  Counter& c = MetricsRegistry::global().counter("test_counter_total", "t");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test_shared_total", "first help");
  Counter& b = reg.counter("test_shared_total", "second help ignored");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("test_shared_gauge");
  Gauge& g2 = reg.gauge("test_shared_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST_F(TelemetryTest, InvalidMetricNamesAreRejected) {
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_THROW((void)reg.counter("has space"), Error);
  EXPECT_THROW((void)reg.counter("0leading_digit"), Error);
  EXPECT_THROW((void)reg.counter(""), Error);
  EXPECT_THROW((void)reg.gauge("dash-not-allowed"), Error);
  EXPECT_NO_THROW((void)reg.counter("ok_name:with_colon_09"));
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::global().gauge("test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST_F(TelemetryTest, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 3.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(100.0); // +Inf bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 103.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST_F(TelemetryTest, EmptyHistogramMinMaxAreNaN) {
  Histogram h({1.0});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST_F(TelemetryTest, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 8; ++i) {
    h.observe(0.5);  // all mass in bucket 0, min 0.5
  }
  h.observe(1.5);   // bucket 1
  h.observe(3.0);   // bucket 2
  const HistogramSnapshot s = h.snapshot();
  // p50 rank = 5 of 10 -> inside bucket 0, interpolated between min and le=1.
  const double p50 = s.quantile(0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  // p99 rank = 10 of 10 -> last occupied bucket, upper edge clamped to max.
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.0);
  // q=0 takes the first sample's bucket floor.
  EXPECT_GE(s.quantile(0.0), 0.5);
}

TEST_F(TelemetryTest, HistogramQuantileEmptyIsNaNAndSingleIsExactish) {
  Histogram empty({1.0});
  EXPECT_TRUE(std::isnan(empty.snapshot().quantile(0.5)));
  Histogram one({10.0});
  one.observe(3.25);
  const HistogramSnapshot s = one.snapshot();
  // min == max tighten the bucket to the single sample.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.25);
}

TEST_F(TelemetryTest, HistogramQuantilesAreMonotone) {
  Histogram h({0.001, 0.01, 0.1, 1.0});
  for (int i = 1; i <= 100; ++i) {
    h.observe(0.002 * static_cast<double>(i));
  }
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.5);
  const double p90 = s.quantile(0.9);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
}

TEST_F(TelemetryTest, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

// --- the latency ladder -----------------------------------------------------

TEST_F(TelemetryTest, LatencyLadderIsLogSpacedFrom100nsTo100s) {
  const std::vector<double>& b = latency_buckets_seconds();
  // Built once: every call hands out the same ladder.
  EXPECT_EQ(&b, &latency_buckets_seconds());
  ASSERT_EQ(b.size(), 1048u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-7);
  EXPECT_GE(b.back(), 100.0);
  EXPECT_LE(kLatencyBucketRatio, 1.02);  // γ − 1 ≤ 2%
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_NEAR(b[i] / b[i - 1], kLatencyBucketRatio, 1e-12);
  }
}

TEST_F(TelemetryTest, LatencyQuantilesAreWithinTheLadderRatio) {
  // Seeded lognormal latencies around 50 µs with a heavy tail: every
  // estimate lands in the bucket of the order statistic it targets, and
  // buckets are γ wide, so the relative error is at most γ − 1.
  Rng rng(2019);
  Histogram h(latency_buckets_seconds());
  std::vector<double> samples(100000);
  for (double& v : samples) {
    v = 50e-6 * std::exp(rng.normal(0.0, 1.0));
    h.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot s = h.snapshot();
  for (const double q : {0.50, 0.90, 0.99}) {
    // quantile() targets the 1-based rank ceil(q·n).
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    EXPECT_LE(std::abs(s.quantile(q) - exact),
              (kLatencyBucketRatio - 1.0) * exact)
        << "q=" << q;
  }
  EXPECT_EQ(s.count, samples.size());
  EXPECT_EQ(s.min, samples.front());
  EXPECT_EQ(s.max, samples.back());
}

TEST_F(TelemetryTest, HistogramMergeEqualsObservingTheUnion) {
  // Multiples of 2^-20 whose partial sums stay below 2^53 units add
  // exactly in any order, so sum must match bit for bit.
  Rng rng(7);
  const std::vector<double>& ladder = latency_buckets_seconds();
  Histogram a(ladder);
  Histogram b(ladder);
  Histogram all(ladder);
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>(rng.uniform_int(1, 1 << 24)) *
                     0x1p-20;
    (rng.bernoulli(0.3) ? a : b).observe(v);
    all.observe(v);
  }
  a.merge(b.snapshot());
  const HistogramSnapshot m = a.snapshot();
  const HistogramSnapshot u = all.snapshot();
  EXPECT_EQ(m.counts, u.counts);
  EXPECT_EQ(m.count, u.count);
  EXPECT_EQ(m.min, u.min);
  EXPECT_EQ(m.max, u.max);
  EXPECT_EQ(m.sum, u.sum);
  EXPECT_NEAR(m.mean, u.mean, 1e-12 * u.mean);
  EXPECT_NEAR(m.stddev, u.stddev, 1e-12 * u.stddev);
  EXPECT_EQ(m.quantile(0.99), u.quantile(0.99));
}

TEST_F(TelemetryTest, HistogramMergeRejectsOtherBounds) {
  Histogram h({1.0, 2.0});
  Histogram other({1.0, 3.0});
  other.observe(0.5);
  EXPECT_THROW(h.merge(other.snapshot()), Error);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(TelemetryTest, CountersSurviveValueReset) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test_reset_total");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.add(1);
  EXPECT_EQ(reg.snapshot().counter_value("test_reset_total"), 1u);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::global();
  (void)reg.counter("test_zzz_total");
  (void)reg.counter("test_aaa_total");
  const MetricsSnapshot s = reg.snapshot();
  for (std::size_t i = 1; i < s.counters.size(); ++i) {
    EXPECT_LT(s.counters[i - 1].name, s.counters[i].name);
  }
}

// --- collectors -------------------------------------------------------------

TEST_F(TelemetryTest, CollectorSamplesMergeWithOwnedCountersByName) {
  MetricsRegistry reg;
  reg.counter("shared_total", "owned help").add(7);
  reg.histogram("shared_seconds", {1.0, 2.0}, "owned help").observe(0.5);
  Histogram theirs({1.0, 2.0});
  theirs.observe(1.5);
  theirs.observe(7.0);
  const CollectorHandle handle = reg.add_collector(
      [&theirs](std::vector<CounterSample>& out,
                std::vector<HistogramSample>& histograms) {
        out.push_back({"shared_total", "collector help", 3});
        out.push_back({"another_total", "only here", 1});
        out.push_back({"shared_total", "", 10});
        histograms.push_back({"shared_seconds", "", theirs.snapshot()});
        histograms.push_back({"shared_seconds", "", theirs.snapshot()});
      });
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "another_total");
  EXPECT_EQ(s.counters[1].name, "shared_total");
  EXPECT_EQ(s.counters[1].value, 20u);
  EXPECT_EQ(s.counters[1].help, "owned help");
  // Same-name histograms merge bucket-wise into one series.
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].help, "owned help");
  const HistogramSnapshot& h = s.histograms[0].data;
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 2, 2}));
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 17.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 7.0);
  // reset_values() zeroes only what the registry owns.
  reg.reset_values();
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counter_value("shared_total"), 13u);
  EXPECT_EQ(after.histogram_data("shared_seconds")->count, 4u);
}

TEST_F(TelemetryTest, DroppedCollectorFoldsItsFinalValues) {
  MetricsRegistry reg;
  std::uint64_t live = 5;
  Histogram latency(latency_buckets_seconds());
  {
    const CollectorHandle handle = reg.add_collector(
        [&live, &latency](std::vector<CounterSample>& out,
                          std::vector<HistogramSample>& histograms) {
          out.push_back({"folded_total", "from a collector", live});
          histograms.push_back(
              {"folded_seconds", "from a collector", latency.snapshot()});
        });
    live = 9;
    latency.observe(0.25);
    EXPECT_EQ(reg.snapshot().counter_value("folded_total"), 9u);
  }
  live = 100;  // no longer read
  latency.observe(0.5);
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_value("folded_total"), 9u);
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].help, "from a collector");
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].help, "from a collector");
  EXPECT_EQ(s.histograms[0].data.count, 1u);
  EXPECT_DOUBLE_EQ(s.histograms[0].data.max, 0.25);
  // The folds are owned instruments now: reset_values() zeroes them.
  reg.reset_values();
  EXPECT_EQ(reg.snapshot().counter_value("folded_total"), 0u);
  EXPECT_EQ(reg.snapshot().histogram_data("folded_seconds")->count, 0u);
}

nn::Mlp collector_test_model() {
  Rng rng(0x5eedu);
  return nn::Mlp({4, 8, 3}, nn::Activation::kGstPhotonic, rng);
}

/// Serves `n` requests through `server` and waits for every response.
void serve(serving::Server& server, int n) {
  for (int i = 0; i < n; ++i) {
    auto fut = server.submit(nn::Vector{0.1, -0.2, 0.3, -0.4});
    ASSERT_TRUE(fut.has_value());
    (void)fut->get();
  }
}

TEST_F(TelemetryTest, TwoServersContributeTheirSum) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  const auto completed = [&reg] {
    return reg.snapshot().counter_value(
        "trident_serving_requests_completed_total");
  };
  serving::ServerConfig cfg;
  cfg.replicas = 1;
  const auto sojourns = [&reg] {
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSnapshot* h =
        snap.histogram_data("trident_serving_sojourn_seconds");
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  {
    serving::Server a(collector_test_model(), cfg);
    serving::Server b(collector_test_model(), cfg);
    serve(a, 3);
    serve(b, 5);
    EXPECT_EQ(completed(), 8u);
    EXPECT_EQ(reg.snapshot().counter_value(
                  "trident_serving_requests_accepted_total"),
              8u);
    EXPECT_EQ(sojourns(), 8u);
    {
      serving::Server c(collector_test_model(), cfg);
      serve(c, 2);
      EXPECT_EQ(sojourns(), 10u);
    }
    // c's histogram folded into the registry's own as it went away.
    EXPECT_EQ(sojourns(), 10u);
  }
  EXPECT_EQ(completed(), 10u);
  EXPECT_EQ(sojourns(), 10u);
}

TEST_F(TelemetryTest, ScrapesNeverSeeServingTotalsDecrease) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  constexpr int kServers = 12;
  constexpr int kRequests = 8;
  std::atomic<bool> done{false};
  std::uint64_t decreases = 0;
  std::uint64_t last = 0;
  std::uint64_t last_sojourns = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.snapshot();
      const std::uint64_t now =
          snap.counter_value("trident_serving_requests_completed_total");
      const HistogramSnapshot* h =
          snap.histogram_data("trident_serving_sojourn_seconds");
      const std::uint64_t sojourns = h == nullptr ? 0 : h->count;
      if (now < last || sojourns < last_sojourns) {
        ++decreases;
      }
      last = now;
      last_sojourns = sojourns;
    }
  });
  serving::ServerConfig cfg;
  cfg.replicas = 2;
  for (int i = 0; i < kServers; ++i) {
    serving::Server server(collector_test_model(), cfg);
    serve(server, kRequests);
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(decreases, 0u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("trident_serving_requests_completed_total"),
            static_cast<std::uint64_t>(kServers * kRequests));
  EXPECT_EQ(snap.histogram_data("trident_serving_sojourn_seconds")->count,
            static_cast<std::uint64_t>(kServers * kRequests));
}

// --- switch -----------------------------------------------------------------

TEST_F(TelemetryTest, SwitchDefaultsOffAndToggles) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
  // Compiled out, set_enabled is a no-op and enabled() stays constexpr false.
  EXPECT_EQ(enabled(), compiled_in());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

// --- spans ------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledSpanRecordsNothing) {
  {
    Span s("never", "test");
  }
  EXPECT_EQ(TraceBuffer::global().size(), 0u);
}

TEST_F(TelemetryTest, EnabledSpanRecordsCompleteEvent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span s("work", "test");
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST_F(TelemetryTest, SpanEndIsIdempotent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  Span s("once", "test");
  s.end();
  s.end();
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TelemetryTest, MovedFromSpanDoesNotDoubleRecord) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span a("moved", "test");
    Span b = std::move(a);
  }
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TelemetryTest, SnapshotIsSortedByStartAcrossThreads) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) {
        Span s("t", "test");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto events = TraceBuffer::global().snapshot();
  EXPECT_EQ(events.size(), 40u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST_F(TelemetryTest, CapacityDropsAreCounted) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  buf.set_thread_capacity(2);
  set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    Span s("overflow", "test");
  }
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 3u);
  buf.set_thread_capacity(1u << 20);
  buf.clear();
  EXPECT_EQ(buf.dropped(), 0u);
}

// --- request-scoped tracing -------------------------------------------------

TEST_F(TelemetryTest, InternCategoryIsIdempotentAndOutlivesCaller) {
  const char* a;
  {
    // Dynamically built, immediately destroyed — the interned copy must
    // not dangle.
    std::string transient = std::string("serving/") + "batch";
    a = intern_category(transient);
  }
  const char* b = intern_category(std::string("serving/") + "batch");
  EXPECT_EQ(a, b);  // same pointer, not just equal content
  EXPECT_STREQ(a, "serving/batch");
  EXPECT_NE(intern_category("serving/other"), a);
}

TEST_F(TelemetryTest, CurrentTraceDefaultsInactive) {
  EXPECT_FALSE(current_trace().active());
  EXPECT_EQ(current_trace(), (TraceContext{}));
}

TEST_F(TelemetryTest, TraceScopeInstallsAndRestoresContext) {
  const TraceContext outer{7, 3};
  {
    TraceScope a(outer);
    EXPECT_EQ(current_trace(), outer);
    {
      TraceScope b(TraceContext{9, 1});
      EXPECT_EQ(current_trace(), (TraceContext{9, 1}));
    }
    EXPECT_EQ(current_trace(), outer);
  }
  EXPECT_FALSE(current_trace().active());
}

TEST_F(TelemetryTest, SpanInheritsCurrentTraceAsParent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  std::uint64_t root_span = 0;
  {
    Span root("request", "serving", TraceContext{42, 0});
    ASSERT_TRUE(root.context().active());
    root_span = root.context().span_id;
    EXPECT_NE(root_span, 0u);
    TraceScope scope(root.context());
    Span child("layer0", "mlp");  // default ctor: inherits thread context
    EXPECT_EQ(child.context().trace_id, 42u);
    EXPECT_NE(child.context().span_id, root_span);
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.trace_id, 42u);
    if (e.name == "layer0") {
      EXPECT_EQ(e.parent_id, root_span);
    } else {
      EXPECT_EQ(e.parent_id, 0u);  // trace root
    }
  }
}

TEST_F(TelemetryTest, UntracedSpanAllocatesNoSpanId) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span s("plain", "test");
    EXPECT_FALSE(s.context().active());
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_EQ(events[0].parent_id, 0u);
}

TEST_F(TelemetryTest, RecordEventInternsCategoryAndStampsTid) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  TraceEvent ev;
  ev.name = "request/queue_wait";
  {
    const std::string transient = "serving";
    ev.category = transient.c_str();
    ev.trace_id = 5;
    ev.args = "\"id\":4";
    buf.record(std::move(ev));
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, intern_category("serving"));  // same pointer
  EXPECT_EQ(events[0].trace_id, 5u);
  EXPECT_EQ(events[0].args, "\"id\":4");
}

TEST_F(TelemetryTest, DroppedCounterMirrorsMultiThreadPressure) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const std::uint64_t counter_before =
      before.counter_value("trident_trace_dropped_total");
  buf.set_thread_capacity(4);
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        Span s("pressure", "test");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  set_enabled(false);
  // Each fresh thread buffers its first 4 events and drops the other 96.
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.dropped(), 384u);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counter_value("trident_trace_dropped_total") -
                counter_before,
            384u);
  buf.set_thread_capacity(1u << 20);
  buf.clear();
  // clear() rewinds the buffer's own tally but never the lifetime counter.
  EXPECT_EQ(buf.dropped(), 0u);
  const MetricsSnapshot final_snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(final_snap.counter_value("trident_trace_dropped_total") -
                counter_before,
            384u);
}

// --- chrome trace exporter --------------------------------------------------

TEST_F(TelemetryTest, EmptyTraceIsExactMinimalDocument) {
  EXPECT_EQ(chrome_trace_json({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

TEST_F(TelemetryTest, EventNamesAreJsonEscaped) {
  std::vector<TraceEvent> events;
  events.push_back({"layer \"x\"\\with\nnewline\tand\x01"
                    "ctrl",
                    "cat", 1.0, 2.0, 3});
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("layer \\\"x\\\"\\\\with\\nnewline\\tand\\u0001ctrl"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
}

TEST_F(TelemetryTest, TimestampsRoundToNanosecondsWithoutScientific) {
  std::vector<TraceEvent> events;
  events.push_back({"a", "c", 1.23456789, 0.00049, 0});       // rounds
  events.push_back({"b", "c", 123456789012.25, 2.5, 0});      // large, exact
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"ts\":1.235,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0,"), std::string::npos);  // below 0.5 ns
  EXPECT_NE(json.find("\"ts\":123456789012.25,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5,"), std::string::npos);
  // Never scientific notation, however large the timestamp.
  EXPECT_EQ(json.find("e+"), std::string::npos);
  EXPECT_EQ(json.find("E+"), std::string::npos);
}

TEST_F(TelemetryTest, FormatTraceUsTrimsAndClamps) {
  EXPECT_EQ(format_trace_us(0.0), "0");
  EXPECT_EQ(format_trace_us(3.0), "3");
  EXPECT_EQ(format_trace_us(2.5), "2.5");
  EXPECT_EQ(format_trace_us(2.50), "2.5");
  EXPECT_EQ(format_trace_us(0.001), "0.001");
  EXPECT_EQ(format_trace_us(-1.0), "0");  // clock misuse clamps
  EXPECT_EQ(format_trace_us(std::nan("")), "0");
}

TEST_F(TelemetryTest, ChromeTraceExportsTraceCorrelationArgs) {
  std::vector<TraceEvent> events;
  TraceEvent traced;
  traced.name = "serve";
  traced.category = "serving";
  traced.ts_us = 1.0;
  traced.dur_us = 2.0;
  traced.trace_id = 7;
  traced.span_id = 12;
  traced.parent_id = 3;
  traced.args = "\"replica\":1,\"attempt\":2";
  events.push_back(traced);
  TraceEvent root = traced;
  root.name = "request";
  root.parent_id = 0;  // trace root: parent key omitted entirely
  root.args.clear();
  events.push_back(root);
  TraceEvent untraced;
  untraced.name = "gemm";
  untraced.category = "kernel";
  events.push_back(untraced);
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"args\":{\"trace\":7,\"span\":12,\"parent\":3,"
                      "\"replica\":1,\"attempt\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":7,\"span\":12}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"parent\":0"), std::string::npos);
  // The untraced event carries no args object at all.
  const auto gemm = json.find("\"gemm\"");
  ASSERT_NE(gemm, std::string::npos);
  EXPECT_EQ(json.find("\"args\"", gemm), std::string::npos);
}

// --- prometheus exporter ----------------------------------------------------

TEST_F(TelemetryTest, PrometheusExpositionShape) {
  MetricsSnapshot snap;
  snap.counters.push_back({"req_total", "requests", 5});
  snap.gauges.push_back({"depth", "", 1.5});
  HistogramSample h;
  h.name = "lat_seconds";
  h.help = "latency";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};  // non-cumulative, +Inf last
  h.data.count = 4;
  h.data.sum = 3.25;
  snap.histograms.push_back(h);

  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 5\n"), std::string::npos);
  // No HELP line when the help string is empty.
  EXPECT_EQ(text.find("# HELP depth"), std::string::npos);
  EXPECT_NE(text.find("depth 1.5\n"), std::string::npos);
  // Buckets are cumulative and end at +Inf.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 4\n"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusEmitsPercentileGaugeSeries) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};
  h.data.count = 4;
  h.data.sum = 3.25;
  h.data.min = 0.05;
  h.data.max = 5.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  // Percentiles are companion gauge families with the unit suffix kept
  // last; `{quantile=...}` samples inside a histogram family are illegal
  // in the OpenMetrics exposition format.
  EXPECT_NE(text.find("# TYPE lat_p50_seconds gauge\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p50_seconds "), std::string::npos);
  EXPECT_NE(text.find("lat_p90_seconds "), std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds "), std::string::npos);
  EXPECT_EQ(text.find("quantile"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusOmitsPercentilesForEmptyHistogram) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {1.0};
  h.data.counts = {0, 0};
  h.data.min = std::nan("");
  h.data.max = std::nan("");
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_EQ(text.find("lat_p50_seconds"), std::string::npos);
  EXPECT_EQ(text.find("quantile"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 0\n"), std::string::npos);
}

TEST_F(TelemetryTest, SingleBucketMassQuantileGaugesCollapseToSample) {
  // All mass in one bucket with min == max: the companion percentile
  // gauges must all report that single value, not a bucket edge.
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {10.0};
  h.data.counts = {4, 0};
  h.data.count = 4;
  h.data.sum = 13.0;
  h.data.min = 3.25;
  h.data.max = 3.25;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("lat_p50_seconds 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p90_seconds 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds 3.25\n"), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotIsDecoupledFromResetValuesMidExport) {
  // A snapshot taken before reset_values() must export the old values
  // unchanged (deep copy, not a live view), and a snapshot taken after
  // must show zeros.
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test_mid_export_total");
  c.reset();
  c.add(9);
  const MetricsSnapshot before = reg.snapshot();
  reg.reset_values();
  const std::string text = prometheus_text(before);
  EXPECT_NE(text.find("test_mid_export_total 9\n"), std::string::npos);
  const std::string json = json_snapshot(before);
  EXPECT_NE(json.find("\"test_mid_export_total\":9"), std::string::npos);
  EXPECT_EQ(reg.snapshot().counter_value("test_mid_export_total"), 0u);
}

TEST_F(TelemetryTest, RegisteredGaugeOwnsPercentileNameOverEstimate) {
  // An explicitly registered gauge (e.g. the serving runtime's exact
  // sojourn p50) keeps its name: the exporter must not emit a duplicate
  // family for the bucket-estimated series.
  MetricsSnapshot snap;
  snap.gauges.push_back({"lat_p50_seconds", "exact p50", 0.123});
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};
  h.data.count = 4;
  h.data.sum = 3.25;
  h.data.min = 0.05;
  h.data.max = 5.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("lat_p50_seconds 0.123\n"), std::string::npos);
  // Exactly one TYPE header for the contested family; p90/p99 estimates
  // are still free to appear.
  const auto first = text.find("# TYPE lat_p50_seconds gauge\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE lat_p50_seconds gauge\n", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds "), std::string::npos);
}

TEST_F(TelemetryTest, PercentileSeriesKeepUnitSuffixLast) {
  // A histogram without the _seconds unit suffix just appends the tag.
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "batch_size";
  h.data.bounds = {2.0, 8.0};
  h.data.counts = {1, 2, 1};
  h.data.count = 4;
  h.data.sum = 14.0;
  h.data.min = 1.0;
  h.data.max = 9.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE batch_size_p99 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("batch_size_p50 "), std::string::npos);
}

// --- json snapshot exporter -------------------------------------------------

TEST_F(TelemetryTest, JsonSnapshotSerializesNaNAsNull) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "empty_hist";
  h.data.bounds = {1.0};
  h.data.counts = {0, 0};
  h.data.min = std::nan("");
  h.data.max = std::nan("");
  snap.histograms.push_back(h);
  const std::string json = json_snapshot(snap);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"min\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max\":null"), std::string::npos);
  // Empty histogram: percentile keys are present but null.
  EXPECT_NE(json.find("\"p50\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":null"), std::string::npos);
  // The +Inf bucket bound serialises as null too.
  EXPECT_NE(json.find("{\"le\":null,\"count\":0}"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST_F(TelemetryTest, JsonSnapshotEmitsNumericPercentiles) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {1.0, 2.0};
  h.data.counts = {3, 1, 0};
  h.data.count = 4;
  h.data.sum = 3.0;
  h.data.min = 0.25;
  h.data.max = 1.5;
  snap.histograms.push_back(h);
  const std::string json = json_snapshot(snap);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.find("\"p50\":null"), std::string::npos);
}

TEST_F(TelemetryTest, ExportersWriteOnlyNonEmptyBuckets) {
  // A latency-ladder histogram has 1049 buckets; the exports carry the
  // occupied ones and +Inf, with Prometheus counts still cumulative.
  Histogram h(latency_buckets_seconds());
  MetricsSnapshot empty;
  empty.histograms.push_back({"lat_seconds", "", h.snapshot()});
  const std::string empty_json = json_snapshot(empty);
  EXPECT_NE(empty_json.find("\"buckets\":[{\"le\":null,\"count\":0}]"),
            std::string::npos)
      << empty_json;
  const std::string empty_text = prometheus_text(empty);
  EXPECT_EQ(empty_text.find("_bucket{le=\"0"), std::string::npos);
  EXPECT_NE(empty_text.find("lat_seconds_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);

  h.observe(2e-6);
  h.observe(3e-3);
  h.observe(3e-3);
  MetricsSnapshot two;
  two.histograms.push_back({"lat_seconds", "", h.snapshot()});
  const HistogramSnapshot& data = two.histograms.front().data;
  std::vector<std::size_t> occupied;
  for (std::size_t i = 0; i + 1 < data.counts.size(); ++i) {
    if (data.counts[i] != 0) {
      occupied.push_back(i);
    }
  }
  ASSERT_EQ(occupied.size(), 2u);
  // The exporters print bounds in shortest round-trip form.
  const auto shortest = [](double v) {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return std::string(buf, end);
  };
  const std::string low = shortest(data.bounds[occupied[0]]);
  const std::string high = shortest(data.bounds[occupied[1]]);

  const std::string text = prometheus_text(two);
  std::size_t series = 0;
  for (std::size_t at = text.find("lat_seconds_bucket{");
       at != std::string::npos; at = text.find("lat_seconds_bucket{", at + 1)) {
    ++series;
  }
  EXPECT_EQ(series, 3u);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"" + low + "\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"" + high + "\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);

  const std::string json = json_snapshot(two);
  EXPECT_NE(json.find("\"buckets\":[{\"le\":" + low +
                      ",\"count\":1},{\"le\":" + high +
                      ",\"count\":2},{\"le\":null,\"count\":0}]"),
            std::string::npos)
      << json;
}

// --- session ----------------------------------------------------------------

TEST_F(TelemetryTest, SessionEnablesOnlyWhenOutputRequested) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  {
    TelemetrySession inert(std::nullopt, std::nullopt);
    EXPECT_FALSE(inert.active());
    EXPECT_FALSE(enabled());
  }
  const std::string path = ::testing::TempDir() + "telemetry_session_m.json";
  {
    TelemetrySession live(path, std::nullopt);
    EXPECT_TRUE(live.active());
    EXPECT_TRUE(enabled());
    EXPECT_TRUE(live.flush());
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

// --- ledger algebra (satellite: per-phase attribution) ----------------------

TEST_F(TelemetryTest, LedgerDeltaAndSumAreFieldwise) {
  core::PhotonicLedger a;
  a.weight_writes = 10;
  a.program_events = 2;
  a.symbols = 30;
  a.macs = 400;
  a.activations = 50;
  core::PhotonicLedger b = a;
  b.weight_writes += 1;
  b.symbols += 2;
  b.macs += 3;

  const core::PhotonicLedger d = b - a;
  EXPECT_EQ(d.weight_writes, 1u);
  EXPECT_EQ(d.program_events, 0u);
  EXPECT_EQ(d.symbols, 2u);
  EXPECT_EQ(d.macs, 3u);
  EXPECT_EQ(d.activations, 0u);

  const core::PhotonicLedger s = a + d;
  EXPECT_EQ(s, b);
  // energy()/time() are linear in the counters.
  EXPECT_DOUBLE_EQ(s.energy().J(), b.energy().J());
  EXPECT_DOUBLE_EQ((a.energy() + d.energy()).J(), b.energy().J());
}

TEST_F(TelemetryTest, LedgerDeltaRejectsNonMonotonicSnapshots) {
  core::PhotonicLedger a;
  a.symbols = 5;
  core::PhotonicLedger b;
  b.symbols = 3;
  EXPECT_THROW((void)(b - a), Error);
}

TEST_F(TelemetryTest, LedgerResetZeroesAllCounters) {
  core::PhotonicLedger l;
  l.weight_writes = 1;
  l.macs = 2;
  l.reset();
  EXPECT_EQ(l, core::PhotonicLedger{});
}

// --- ledger mirror exactness (acceptance criterion) -------------------------

TEST_F(TelemetryTest, MetricsMirrorLedgerExactly) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  set_enabled(true);

  core::PhotonicBackend backend;
  nn::Matrix w(4, 3);
  for (std::size_t i = 0; i < w.data().size(); ++i) {
    w.data()[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  const nn::Vector x{0.2, -0.5, 0.8};
  (void)backend.matmul(w, nn::as_row(x));
  (void)backend.matmul(w, nn::as_row(x));  // resident: no extra programming
  nn::Matrix xb(5, 3);
  for (std::size_t i = 0; i < xb.data().size(); ++i) {
    xb.data()[i] = 0.05 * static_cast<double>(i) - 0.3;
  }
  (void)backend.matmul(w, xb);
  (void)backend.matmul_transposed(w, nn::as_row({0.1, 0.2, 0.3, 0.4}));
  nn::Matrix xt(2, 4);
  for (std::size_t i = 0; i < xt.data().size(); ++i) {
    xt.data()[i] = 0.1 * static_cast<double>(i) - 0.4;
  }
  (void)backend.matmul_transposed(w, xt);
  backend.update_batch(w, nn::as_row({0.1, 0.2, 0.3, 0.4}),
                       nn::as_row({0.5, 0.6, 0.7}), 0.1);
  set_enabled(false);

  const MetricsSnapshot snap = reg.snapshot();
  core::PhotonicLedger from_metrics;
  from_metrics.weight_writes =
      snap.counter_value("trident_ledger_weight_writes_total");
  from_metrics.program_events =
      snap.counter_value("trident_ledger_program_events_total");
  from_metrics.symbols = snap.counter_value("trident_ledger_symbols_total");
  from_metrics.macs = snap.counter_value("trident_ledger_macs_total");
  from_metrics.activations =
      snap.counter_value("trident_ledger_activations_total");

  EXPECT_EQ(from_metrics, backend.ledger());
  // Bit-exact energy: both sides compute from the same integers.
  EXPECT_EQ(from_metrics.energy().J(), backend.ledger().energy().J());
  EXPECT_EQ(from_metrics.time().s(), backend.ledger().time().s());
  // The second one-row matmul and the block matmul were both served by resident
  // weights (non-volatility: programming charged only when contents change).
  EXPECT_EQ(snap.counter_value("trident_backend_program_reuse_total"), 2u);
}

TEST_F(TelemetryTest, DisabledPathLeavesMetricsUntouched) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  ASSERT_FALSE(enabled());

  core::PhotonicBackend backend;
  nn::Matrix w(2, 2);
  w.data() = {0.1, -0.2, 0.3, -0.4};
  (void)backend.matmul(w, nn::as_row({0.5, 0.5}));

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("trident_ledger_symbols_total"), 0u);
  EXPECT_EQ(snap.counter_value("trident_ledger_macs_total"), 0u);
  // The hardware books still ran — only the mirror is off.
  EXPECT_EQ(backend.ledger().symbols, 1u);
}

}  // namespace
}  // namespace trident::telemetry
