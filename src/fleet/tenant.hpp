// Per-tenant admission classes for fleet serving.
//
// A fleet front door multiplexes many tenants onto shared accelerator
// nodes; what distinguishes production serving from a benchmark loop is
// that those tenants have *different contracts*.  Trident models two SLO
// classes, the minimal set that exercises every mechanism:
//
//   gold    tight deadline, sheds last.  Admission only refuses a gold
//           request when the routed node's queue is truly full (watermark
//           1.0), and every request carries a deadline stamped from the
//           class target, so misses are accounted per tenant.
//   bronze  looser (or no) deadline, sheds first.  Admission refuses a
//           bronze request as soon as the routed node's queue passes the
//           class watermark (a fraction of capacity), which keeps gold
//           queue-wait bounded under overload — priority by early shedding
//           rather than by queue-jumping, so the FIFO batcher below stays
//           untouched.
//
// Each class also carries a shed *budget*: the fraction of offered
// requests the operator considers acceptable to shed.  The budget is not
// an enforcement mechanism — shedding is decided by watermarks — it is
// the accounting yardstick the health monitor and autoscaler consume
// (shed-rate burn = shed fraction ÷ budget), and per-tenant counters make
// the spend observable.
//
// The class defaults also ride the PR-6 fast/exact knob: a class can
// default its tenants onto the int8 quantized tier (bronze traffic that
// tolerates the calibrated error bound) while gold stays exact.
#pragma once

#include <cstdint>
#include <string>

#include "serving/request.hpp"
#include "serving/slo.hpp"

namespace trident::fleet {

/// SLO class of a tenant.
enum class TenantClass {
  kGold,    ///< tight deadline, sheds last
  kBronze,  ///< loose deadline, sheds first
};

[[nodiscard]] inline const char* to_string(TenantClass c) {
  return c == TenantClass::kGold ? "gold" : "bronze";
}

/// Admission contract of one class.
struct TenantClassPolicy {
  /// Deadline stamped on every request of this class, measured from
  /// admission (0 = no deadline).  Misses are counted per tenant.
  double deadline_s = 0.0;
  /// Shed the request when the routed node's queue depth is at or past
  /// this fraction of its capacity.  1.0 defers entirely to the node's own
  /// admission control (gold); below 1.0 sheds early (bronze).
  double admit_watermark = 1.0;
  /// Acceptable shed fraction (accounting input for health/autoscaling,
  /// not an enforcement bound).
  double shed_budget = 0.01;
  /// Execution tier this class's tenants default to.
  serving::ServingTier default_tier = serving::ServingTier::kExact;
};

/// One registered tenant.  `key` (derived from the name by the fleet)
/// both routes the tenant on the consistent-hash ring and attributes
/// responses back to it.
struct TenantSpec {
  std::string name;
  TenantClass klass = TenantClass::kBronze;
};

/// Point-in-time accounting for one tenant.  The same conservation laws
/// as the fleet totals hold per tenant: submitted == accepted + shed, and
/// (after drain) accepted == completed + failed.
struct TenantStats {
  std::string name;
  TenantClass klass = TenantClass::kBronze;
  std::uint64_t key = 0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_violations = 0;  ///< class-deadline misses
  serving::LatencySummary sojourn;   ///< per-tenant latency histogram summary
};

}  // namespace trident::fleet
