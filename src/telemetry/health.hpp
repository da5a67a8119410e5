// SLO burn-rate health monitor.
//
// Turns the serving counters/gauges the registry already carries into a
// machine-readable health *decision*: healthy / warning / critical.  The
// classifier is the multi-window burn-rate scheme from SRE practice — a
// signal only escalates when its error budget is burning fast over BOTH a
// short window (responsive, catches storms in seconds) and a long window
// (suppresses blips), and only de-escalates after the condition has been
// clear for a configured recovery period (hysteresis, so flapping load
// does not flap the state).
//
// Inputs are explicit `HealthSample`s carrying cumulative counter values
// and an explicit timestamp, so tests drive synthetic counters and a
// synthetic clock; `sample_registry()` builds a sample from the live
// serving metrics for production use.  Each `update()` publishes the
// state and per-signal burn gauges through the normal exporters
// (`trident_health_state` ∈ {0,1,2}) and fires an `on_transition`
// callback — the hook the fleet autoscaler and canary auto-rollback
// consume.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace trident::telemetry {

/// Machine-readable health state, ordered by severity.  The numeric
/// values are the exported `trident_health_state` gauge encoding.
enum class HealthState : int {
  kHealthy = 0,
  kWarning = 1,
  kCritical = 2,
};

/// Human/export label ("healthy" / "warning" / "critical").
[[nodiscard]] const char* to_string(HealthState s);

/// One observation of the cumulative serving counters at time `t_s`.
/// Counters are lifetime totals (monotonic); the monitor differences
/// them across its windows.  Gauges are instantaneous.
struct HealthSample {
  double t_s = 0.0;  ///< sample time, seconds on any monotonic clock

  std::uint64_t completed = 0;       ///< requests completed (any tier)
  std::uint64_t slo_violations = 0;  ///< deadline/SLO misses
  std::uint64_t shed = 0;            ///< admission-rejected requests
  std::uint64_t degraded = 0;        ///< failed/degraded responses

  double p99_s = 0.0;                  ///< sojourn p99, seconds (0 = unknown)
  double energy_per_inference_j = 0.0; ///< derived gauge (0 = unknown)
};

/// Burn-rate thresholds.  A signal's *rate* is its violation fraction
/// over a window (e.g. shed / offered); its *burn* is rate ÷ budget, so
/// burn 1.0 means "consuming exactly the error budget".
struct HealthConfig {
  double short_window_s = 5.0;
  double long_window_s = 60.0;

  /// Error budgets (allowed violation fraction per signal).
  double slo_budget = 0.01;       ///< ≤1% of completions may miss SLO
  double shed_budget = 0.01;      ///< ≤1% of offered requests may shed
  double degraded_budget = 0.005; ///< ≤0.5% of responses may be degraded

  /// Escalation thresholds on the burn value.  Warning fires on the
  /// short window alone; critical requires BOTH windows burning.
  double warning_burn = 1.0;
  double critical_burn = 10.0;

  /// De-escalation hysteresis: the state steps down only after every
  /// signal has been below its threshold for this long.
  double recovery_s = 10.0;

  /// Instantaneous gauge limits (0 disables the check).  Breach raises
  /// at least warning; breach at 2x the limit raises critical.
  double p99_limit_s = 0.0;
  double energy_limit_j = 0.0;
};

/// Burn values for one signal over both windows.
struct BurnRate {
  double short_burn = 0.0;
  double long_burn = 0.0;
};

/// The decision plus everything that went into it.
struct HealthReport {
  HealthState state = HealthState::kHealthy;
  HealthState raw = HealthState::kHealthy;  ///< pre-hysteresis classification
  BurnRate slo;
  BurnRate shed;
  BurnRate degraded;
  double p99_s = 0.0;
  double energy_per_inference_j = 0.0;
  /// Short reason for the raw classification ("slo burn 14.2 over both
  /// windows", "recovered"); stable enough for logs, not an API.
  std::string reason;
};

/// Multi-window burn-rate classifier with hysteresis.  Not thread-safe:
/// one owner calls update() (the serving loop's sampler or a test).
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  /// Feeds one sample (t_s must be non-decreasing), reclassifies, and —
  /// when telemetry is enabled — publishes `trident_health_state`, the
  /// per-signal burn gauges, and `trident_health_transitions_total`.
  HealthReport update(const HealthSample& sample);

  /// Callback fired inside update() on every state change
  /// (old state, new state, full report).
  void on_transition(
      std::function<void(HealthState, HealthState, const HealthReport&)> cb) {
    on_transition_ = std::move(cb);
  }

  [[nodiscard]] HealthState state() const { return state_; }
  [[nodiscard]] const HealthConfig& config() const { return config_; }

  /// Builds a sample from the live registry's serving metrics
  /// (`trident_serving_requests_completed_total`,
  /// `trident_serving_slo_violations_total`,
  /// `trident_serving_requests_shed_total`,
  /// `trident_serving_requests_failed_total`, and the p99 of the
  /// `trident_serving_sojourn_seconds` histogram merged over every live
  /// and retired server; 0 before any response).  `energy_per_inference_j`
  /// stays 0 — energy is ledger-derived, so callers that track a ledger
  /// fill it in themselves.
  [[nodiscard]] static HealthSample sample_registry(double t_s);

 private:
  /// Oldest retained sample no younger than `t - window`; differences
  /// against it give the windowed deltas.
  [[nodiscard]] const HealthSample& window_base(double window_s) const;
  [[nodiscard]] HealthState classify(const HealthReport& report) const;
  void publish(const HealthReport& report);

  HealthConfig config_;
  std::vector<HealthSample> history_;  ///< time-ordered, pruned to long window
  HealthState state_ = HealthState::kHealthy;
  double last_breach_s_ = -1.0;  ///< last time raw >= current state level
  std::function<void(HealthState, HealthState, const HealthReport&)>
      on_transition_;
};

}  // namespace trident::telemetry
