#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace trident::telemetry {

namespace {

[[nodiscard]] bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

/// Sorts samples by name (stable, so earlier entries keep their help
/// string ahead of later ones) and folds each run of equal names into one
/// with `combine`.
template <typename Sample, typename Combine>
void merge_by_name(std::vector<Sample>& samples, Combine combine) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.name < b.name;
                   });
  std::vector<Sample> merged;
  merged.reserve(samples.size());
  for (Sample& x : samples) {
    if (!merged.empty() && merged.back().name == x.name) {
      combine(merged.back(), x);
      if (merged.back().help.empty()) {
        merged.back().help = std::move(x.help);
      }
    } else {
      merged.push_back(std::move(x));
    }
  }
  samples = std::move(merged);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TRIDENT_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                      std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                          bounds_.end(),
                  "histogram bounds must be strictly ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard lock(mutex_);
  ++counts_[bucket];
  stats_.add(x);
  sum_ += x;
}

void Histogram::merge(const HistogramSnapshot& other) {
  TRIDENT_REQUIRE(other.bounds == bounds_ &&
                      other.counts.size() == counts_.size(),
                  "merged histograms must share their bucket bounds");
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts[i];
  }
  stats_.combine(other.count, other.mean, other.stddev * other.stddev,
                 other.min, other.max);
  sum_ += other.sum;
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts = counts_;
  s.count = stats_.count();
  s.sum = sum_;
  s.mean = stats_.mean();
  s.stddev = stats_.stddev();
  s.min = stats_.min();
  s.max = stats_.max();
  return s;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  stats_ = RunningStats{};
  sum_ = 0.0;
}

double HistogramSnapshot::quantile(double q) const {
  TRIDENT_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Rank of the target observation (1-based, clamped into [1, count]).
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (rank > static_cast<double>(cumulative)) {
      continue;
    }
    // Bucket edges: the observed min/max tighten the outermost buckets,
    // and the +Inf bucket's upper edge is the observed max.
    double lo = i == 0 ? min : bounds[i - 1];
    double hi = i < bounds.size() ? bounds[i] : max;
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi < lo) {
      return lo;
    }
    const double frac =
        (rank - before) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * frac;
  }
  return max;  // unreachable when counts sum to count
}

std::vector<double> duration_buckets_seconds() {
  return {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
          1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
}

const std::vector<double>& latency_buckets_seconds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b(1048);  // 1e-7 · 1.02^1047 ≈ 102 s
    for (std::size_t k = 0; k < b.size(); ++k) {
      b[k] = 1e-7 * std::pow(kLatencyBucketRatio, static_cast<double>(k));
    }
    return b;
  }();
  return bounds;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) {
      return c.value;
    }
  }
  return 0;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) {
      return g.value;
    }
  }
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram_data(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) {
      return &h.data;
    }
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: instrumentation in thread-pool workers and other
  // statics may record during shutdown, after function-local statics in
  // other translation units were destroyed.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Counter>();
  }
  return *slot.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Gauge>();
  }
  return *slot.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot.second;
}

CollectorHandle::~CollectorHandle() { registry_.remove_collector(id_); }

CollectorHandle MetricsRegistry::add_collector(Collector collect) {
  std::lock_guard lock(collectors_mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collect));
  return CollectorHandle(*this, id);
}

void MetricsRegistry::remove_collector(std::uint64_t id) {
  // The final collect and the fold happen under collectors_mutex_, which
  // snapshot() holds across its whole read: a scrape sees the owner's
  // values either live or folded, never neither.
  std::lock_guard lock(collectors_mutex_);
  const auto it = collectors_.find(id);
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;
  it->second(counters, histograms);
  collectors_.erase(it);
  for (const CounterSample& c : counters) {
    counter(c.name, c.help).add(c.value);
  }
  for (const HistogramSample& h : histograms) {
    histogram(h.name, h.data.bounds, h.help).merge(h.data);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard collectors_lock(collectors_mutex_);
  MetricsSnapshot s;
  {
    std::lock_guard lock(mutex_);
    s.counters.reserve(counters_.size());
    for (const auto& [name, entry] : counters_) {
      s.counters.push_back({name, entry.first, entry.second->value()});
    }
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, entry] : gauges_) {
      s.gauges.push_back({name, entry.first, entry.second->value()});
    }
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, entry] : histograms_) {
      s.histograms.push_back({name, entry.first, entry.second->snapshot()});
    }
  }
  // Collectors run without mutex_, so one may take its owner's locks (see
  // the rules on add_collector).  Owned instruments come first, so the
  // stable merge keeps their help string ahead of a collector's.
  for (const auto& [id, collect] : collectors_) {
    collect(s.counters, s.histograms);
  }
  merge_by_name(s.counters, [](CounterSample& into, const CounterSample& c) {
    into.value += c.value;
  });
  merge_by_name(s.histograms,
                [](HistogramSample& into, const HistogramSample& h) {
                  Histogram sum(into.data.bounds);
                  sum.merge(into.data);
                  sum.merge(h.data);
                  into.data = sum.snapshot();
                });
  return s;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, entry] : counters_) {
    entry.second->reset();
  }
  for (auto& [name, entry] : gauges_) {
    entry.second->reset();
  }
  for (auto& [name, entry] : histograms_) {
    entry.second->reset();
  }
}

}  // namespace trident::telemetry
