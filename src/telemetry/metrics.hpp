// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms with Welford running statistics (common/stats.hpp).
//
// Two ways to feed it.  Process-wide instruments (ledger mirrors, GEMM
// dispatch, histograms, gauges) are owned by the registry and pushed at
// the call site:
//
//   namespace {
//   struct Metrics {
//     telemetry::Counter& symbols =
//         telemetry::MetricsRegistry::global().counter(
//             "trident_photonic_symbols_total", "optical symbols streamed");
//   };
//   Metrics& metrics() { static Metrics m; return m; }
//   }  // namespace
//   ...
//   if (telemetry::enabled()) {
//     metrics().symbols.add(batch);
//   }
//
// Registration (name lookup, allocation) happens once per site behind a
// function-local static; the recording calls are a relaxed fetch_add
// (Counter/Gauge) or a short uncontended mutex (Histogram).  Instruments
// never record on their own — call sites guard with telemetry::enabled(),
// so the disabled path costs one branch on a relaxed atomic.
//
// Objects that already keep their own always-on counters or latency
// histograms (a serving Server, a Fleet, a LearningPipeline) do not push a
// second copy.  They register a collector that reads those instruments
// when snapshot() runs, and hold the returned handle as their LAST member,
// so it is destroyed before the instruments it reads:
//
//   class Owner {
//     telemetry::Histogram latency_{telemetry::latency_buckets_seconds()};
//     telemetry::CollectorHandle collector_ =
//         telemetry::MetricsRegistry::global().add_collector(
//             [this](std::vector<telemetry::CounterSample>& counters,
//                    std::vector<telemetry::HistogramSample>& histograms) {
//               histograms.push_back({"trident_owner_latency_seconds",
//                                     "request latency", latency_.snapshot()});
//             });
//   };
//
// Samples merge by name: several live owners and the registry's own
// instrument of that name sum into one series (histograms bucket-wise, so
// they must share one bucket ladder).  When a handle is destroyed its
// final values fold into the registry's own instruments, so exported
// totals stay monotonic after the owner is gone.
//
// References returned by the registry are stable for the process lifetime
// (the registry is an intentionally leaked singleton, so worker threads
// may record during static destruction without ordering hazards).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace trident::telemetry {

/// Monotonic event count (Prometheus counter semantics).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double value (queue depth, accuracy, energy so far, …).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;         ///< finite upper bounds, ascending
  std::vector<std::uint64_t> counts;  ///< per-bucket; counts.back() = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;  ///< NaN when count == 0 (RunningStats convention)
  double max = 0.0;  ///< NaN when count == 0

  /// Quantile estimate from the bucket counts (q in [0, 1]): linear
  /// interpolation inside the containing bucket, with the exact observed
  /// min/max as the outer edges (so estimates never leave the observed
  /// range, and the +Inf bucket stays bounded).  NaN when count == 0.
  /// This is what puts p50/p99 SLO numbers straight into exported
  /// snapshots without post-processing.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-bucket histogram plus single-pass Welford stats.  Observation
/// takes a mutex; every instrumented site has its own histogram so the
/// lock is effectively uncontended.
class Histogram {
 public:
  /// `bounds` are the finite bucket upper limits, strictly ascending; an
  /// implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);
  /// Adds a snapshot with the same bounds, as if its samples were observed
  /// here: bucket counts, count, min, max and sum exactly, mean and stddev
  /// to rounding (RunningStats::combine).
  void merge(const HistogramSnapshot& other);
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 buckets
  RunningStats stats_;
  double sum_ = 0.0;
};

/// Default bucket ladder for kernel / task durations in seconds
/// (1 µs … 10 s, decade-and-a-half steps).
[[nodiscard]] std::vector<double> duration_buckets_seconds();

/// Ratio of adjacent bounds on the latency ladder.
inline constexpr double kLatencyBucketRatio = 1.02;

/// The one ladder for request latencies, built once per process: 1048
/// bounds 100 ns · γ^k (γ = kLatencyBucketRatio), up to ~102 s.  Inside
/// it, HistogramSnapshot::quantile is within γ − 1 of the exact order
/// statistic at the rank it targets.
[[nodiscard]] const std::vector<double>& latency_buckets_seconds();

struct CounterSample {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  HistogramSnapshot data;
};

/// Consistent point-in-time view of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Counter value by exact name; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Gauge value by exact name; 0.0 when absent.
  [[nodiscard]] double gauge_value(const std::string& name) const;
  /// Histogram by exact name; null when absent.
  [[nodiscard]] const HistogramSnapshot* histogram_data(
      const std::string& name) const;
};

/// Appends an owner's current counter values and histograms at snapshot
/// time.
using Collector = std::function<void(std::vector<CounterSample>&,
                                     std::vector<HistogramSample>&)>;

class MetricsRegistry;

/// RAII registration of a Collector.  Destruction collects one last time,
/// folds those values into the registry's own counters and histograms of
/// the same names, and unregisters — blocking until any snapshot in
/// progress has finished, so no scrape ever calls into a destroyed owner.
class CollectorHandle {
 public:
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;
  ~CollectorHandle();

 private:
  friend class MetricsRegistry;
  CollectorHandle(MetricsRegistry& registry, std::uint64_t id)
      : registry_(registry), id_(id) {}

  MetricsRegistry& registry_;
  std::uint64_t id_;
};

/// Thread-safe name → instrument registry.  Names follow the Prometheus
/// grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`; re-registering a name returns the
/// same instrument (the first help string and bucket layout win).
class MetricsRegistry {
 public:
  /// The process-wide registry every instrumentation site uses.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Registers `collect`, called by every snapshot() from then on.  Its
  /// samples merge with the registry's own instruments by name (counter
  /// values summed, histograms merged bucket-wise, the first non-empty
  /// help string wins).
  ///
  /// Locking rules:
  ///   * Collectors run outside the instrument mutex, under a collectors
  ///     mutex that unregistration also takes.
  ///   * A collector may take only locks under which no code registers or
  ///     drops a collector (constructs or destroys a collector owner) or
  ///     calls snapshot(); otherwise a scrape and that code deadlock.
  [[nodiscard]] CollectorHandle add_collector(Collector collect);

  /// Owned instruments merged with every live collector's samples, sorted
  /// by name with each name once.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every owned instrument's value (registrations and the
  /// references handed out stay valid).  Values a live collector reports
  /// belong to its owner and are not reset.  For tests and per-phase
  /// benches.
  void reset_values();

 private:
  friend class CollectorHandle;
  void remove_collector(std::uint64_t id);

  /// Taken before mutex_ wherever both are held.
  mutable std::mutex collectors_mutex_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_id_ = 1;

  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Counter>>>
      counters_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Gauge>>>
      gauges_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Histogram>>>
      histograms_;
};

}  // namespace trident::telemetry
