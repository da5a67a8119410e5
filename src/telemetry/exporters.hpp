// Telemetry exporters.
//
// Three formats cover the project's consumers:
//
//   * Chrome-tracing JSON ("X" complete events, µs timestamps) — the same
//     format core/trace_export.cpp renders ArraySim schedules in (it uses
//     the ChromeTraceWriter below), so live MLP/CNN training spans and
//     offline array schedules open side by side in Perfetto /
//     about://tracing;
//   * Prometheus text exposition — scrape-able counters/gauges/histograms
//     for long-running serving experiments;
//   * a flat JSON snapshot — the BENCH_*.json-style artifact CI uploads
//     and diffs across commits (scripts/metrics_schema.json describes it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace trident::telemetry {

/// JSON string escaping: quotes, backslashes, and control characters
/// (shared by every exporter; previously each trace writer rolled its own
/// partial version).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Microsecond timestamp formatting for Chrome traces: rounded to
/// nanosecond resolution (3 decimals), trailing zeros trimmed, never
/// scientific notation (a plain `operator<<` rounds large traces to six
/// significant digits, which collapses distinct events).
[[nodiscard]] std::string format_trace_us(double us);

/// Streaming Chrome-trace writer: prologue, one `event()` per record,
/// `finish()` (or destruction) closes the JSON.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ~ChromeTraceWriter();

  /// Emits one complete ("ph":"X") event.
  void event(std::string_view name, std::string_view category, double ts_us,
             double dur_us, int pid, std::uint64_t tid);

  /// Same, with a Chrome-trace `args` object.  `args_json` is the object's
  /// member list *without* the surrounding braces (already valid JSON, e.g.
  /// `"trace":7,"replica":0`); empty emits no args key.
  void event(std::string_view name, std::string_view category, double ts_us,
             double dur_us, int pid, std::uint64_t tid,
             std::string_view args_json);

  /// Closes the traceEvents array and the document (idempotent).
  void finish();

 private:
  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
};

/// Renders live span events (TraceBuffer::snapshot()) as a Chrome trace.
void write_chrome_trace(std::span<const TraceEvent> events, std::ostream& os);
[[nodiscard]] std::string chrome_trace_json(std::span<const TraceEvent> events);

/// Prometheus text exposition (# HELP / # TYPE / samples).  Histograms
/// write only non-empty finite buckets, then `+Inf`; so does the JSON.
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& os);
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Flat JSON snapshot of the registry (schema_version 1; see
/// scripts/metrics_schema.json).  Empty-stat min/max (NaN) serialise as
/// null — JSON has no NaN.
void write_json_snapshot(const MetricsSnapshot& snapshot, std::ostream& os);
[[nodiscard]] std::string json_snapshot(const MetricsSnapshot& snapshot);

}  // namespace trident::telemetry
