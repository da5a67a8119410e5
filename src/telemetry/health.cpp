#include "telemetry/health.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::telemetry {

namespace {

struct HealthMetrics {
  MetricsRegistry& reg = MetricsRegistry::global();
  Gauge& state = reg.gauge("trident_health_state",
                           "serving health: 0 healthy, 1 warning, 2 critical");
  Gauge& slo_short = reg.gauge("trident_health_slo_burn_short",
                               "SLO-violation burn rate, short window");
  Gauge& slo_long = reg.gauge("trident_health_slo_burn_long",
                              "SLO-violation burn rate, long window");
  Gauge& shed_short = reg.gauge("trident_health_shed_burn_short",
                                "shed burn rate, short window");
  Gauge& shed_long = reg.gauge("trident_health_shed_burn_long",
                               "shed burn rate, long window");
  Gauge& degraded_short = reg.gauge("trident_health_degraded_burn_short",
                                    "degraded-response burn rate, short window");
  Gauge& degraded_long = reg.gauge("trident_health_degraded_burn_long",
                                   "degraded-response burn rate, long window");
  Counter& transitions = reg.counter("trident_health_transitions_total",
                                     "health state changes");
};

HealthMetrics& health_metrics() {
  static HealthMetrics m;
  return m;
}

/// Counter delta that tolerates resets (monotonic counters only grow; a
/// smaller current value means the registry was reset — treat as 0).
[[nodiscard]] std::uint64_t delta(std::uint64_t now, std::uint64_t base) {
  return now >= base ? now - base : 0;
}

/// burn = violation-fraction ÷ budget.  No traffic in the window means no
/// budget is burning.
[[nodiscard]] double burn(std::uint64_t violations, std::uint64_t total,
                          double budget) {
  if (total == 0 || budget <= 0.0) {
    return 0.0;
  }
  return (static_cast<double>(violations) / static_cast<double>(total)) /
         budget;
}

[[nodiscard]] std::string format_burn(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kWarning:
      return "warning";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig config) : config_(config) {}

const HealthSample& HealthMonitor::window_base(double window_s) const {
  // Newest sample at least `window_s` old — the tightest base that still
  // spans the window.  Falls back to the oldest retained sample while the
  // history is shorter than the window (burn is then computed over the
  // whole observed history, which is what makes a cold-start storm
  // escalate without waiting a full long window).
  const double cutoff = history_.back().t_s - window_s;
  const HealthSample* base = &history_.front();
  for (const HealthSample& s : history_) {
    if (s.t_s > cutoff) {
      break;
    }
    base = &s;
  }
  return *base;
}

HealthState HealthMonitor::classify(const HealthReport& report) const {
  const auto critical = [&](const BurnRate& b) {
    return b.short_burn >= config_.critical_burn &&
           b.long_burn >= config_.critical_burn;
  };
  const auto warning = [&](const BurnRate& b) {
    return b.short_burn >= config_.warning_burn;
  };
  const bool p99_over =
      config_.p99_limit_s > 0.0 && report.p99_s > config_.p99_limit_s;
  const bool p99_way_over =
      config_.p99_limit_s > 0.0 && report.p99_s > 2.0 * config_.p99_limit_s;
  const bool energy_over = config_.energy_limit_j > 0.0 &&
                           report.energy_per_inference_j >
                               config_.energy_limit_j;
  const bool energy_way_over = config_.energy_limit_j > 0.0 &&
                               report.energy_per_inference_j >
                                   2.0 * config_.energy_limit_j;
  if (critical(report.slo) || critical(report.shed) ||
      critical(report.degraded) || p99_way_over || energy_way_over) {
    return HealthState::kCritical;
  }
  if (warning(report.slo) || warning(report.shed) ||
      warning(report.degraded) || p99_over || energy_over) {
    return HealthState::kWarning;
  }
  return HealthState::kHealthy;
}

HealthReport HealthMonitor::update(const HealthSample& sample) {
  // Keep time monotone even under a sloppy caller clock.
  HealthSample s = sample;
  if (!history_.empty() && s.t_s < history_.back().t_s) {
    s.t_s = history_.back().t_s;
  }
  history_.push_back(s);

  // Prune to the long window, keeping one base sample older than it.
  const double cutoff = s.t_s - config_.long_window_s;
  std::size_t keep_from = 0;
  for (std::size_t i = 0; i + 1 < history_.size(); ++i) {
    if (history_[i + 1].t_s <= cutoff) {
      keep_from = i + 1;
    }
  }
  history_.erase(history_.begin(),
                 history_.begin() + static_cast<std::ptrdiff_t>(keep_from));

  HealthReport report;
  const auto rates = [&](double window_s) {
    const HealthSample& base = window_base(window_s);
    const std::uint64_t completed = delta(s.completed, base.completed);
    const std::uint64_t slo = delta(s.slo_violations, base.slo_violations);
    const std::uint64_t shed = delta(s.shed, base.shed);
    const std::uint64_t degraded = delta(s.degraded, base.degraded);
    const std::uint64_t offered = completed + shed + degraded;
    struct R {
      double slo, shed, degraded;
    };
    return R{burn(slo, completed, config_.slo_budget),
             burn(shed, offered, config_.shed_budget),
             burn(degraded, completed + degraded, config_.degraded_budget)};
  };
  const auto sr = rates(config_.short_window_s);
  const auto lr = rates(config_.long_window_s);
  report.slo = {sr.slo, lr.slo};
  report.shed = {sr.shed, lr.shed};
  report.degraded = {sr.degraded, lr.degraded};
  report.p99_s = s.p99_s;
  report.energy_per_inference_j = s.energy_per_inference_j;

  report.raw = classify(report);
  if (report.raw == HealthState::kCritical) {
    if (report.shed.short_burn >= config_.critical_burn) {
      report.reason = "shed burn " + format_burn(report.shed.short_burn) +
                      " over both windows";
    } else if (report.slo.short_burn >= config_.critical_burn) {
      report.reason = "slo burn " + format_burn(report.slo.short_burn) +
                      " over both windows";
    } else if (report.degraded.short_burn >= config_.critical_burn) {
      report.reason = "degraded burn " +
                      format_burn(report.degraded.short_burn) +
                      " over both windows";
    } else {
      report.reason = "gauge limit exceeded 2x";
    }
  } else if (report.raw == HealthState::kWarning) {
    report.reason = "short-window budget burning";
  } else {
    report.reason = state_ == HealthState::kHealthy ? "healthy" : "recovered";
  }

  // Hysteresis: escalation is immediate; de-escalation waits until every
  // signal has been below the current level for recovery_s.
  const HealthState before = state_;
  if (report.raw >= state_) {
    state_ = report.raw;
    if (state_ != HealthState::kHealthy) {
      last_breach_s_ = s.t_s;
    }
  } else if (last_breach_s_ < 0.0 ||
             s.t_s - last_breach_s_ >= config_.recovery_s) {
    state_ = report.raw;
  }
  report.state = state_;

  publish(report);
  if (state_ != before && on_transition_) {
    on_transition_(before, state_, report);
  }
  return report;
}

void HealthMonitor::publish(const HealthReport& report) {
  if (!enabled()) {
    return;
  }
  HealthMetrics& m = health_metrics();
  const auto previous = static_cast<int>(m.state.value());
  m.state.set(static_cast<double>(static_cast<int>(report.state)));
  m.slo_short.set(report.slo.short_burn);
  m.slo_long.set(report.slo.long_burn);
  m.shed_short.set(report.shed.short_burn);
  m.shed_long.set(report.shed.long_burn);
  m.degraded_short.set(report.degraded.short_burn);
  m.degraded_long.set(report.degraded.long_burn);
  if (previous != static_cast<int>(report.state)) {
    m.transitions.add(1);
  }
}

HealthSample HealthMonitor::sample_registry(double t_s) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  HealthSample s;
  s.t_s = t_s;
  s.completed = snap.counter_value("trident_serving_requests_completed_total");
  s.slo_violations =
      snap.counter_value("trident_serving_slo_violations_total");
  s.shed = snap.counter_value("trident_serving_requests_shed_total");
  s.degraded = snap.counter_value("trident_serving_requests_failed_total");
  const HistogramSnapshot* soj =
      snap.histogram_data("trident_serving_sojourn_seconds");
  s.p99_s = soj != nullptr && soj->count > 0 ? soj->quantile(0.99) : 0.0;
  return s;
}

}  // namespace trident::telemetry
