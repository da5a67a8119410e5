#include "telemetry/exporters.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace trident::telemetry {

namespace {

/// Shortest round-trip decimal for a finite double (JSON number).
[[nodiscard]] std::string format_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, ptr);
}

/// JSON value for a possibly-NaN statistic: numbers pass through, NaN and
/// infinities become null (JSON has neither).
[[nodiscard]] std::string json_number_or_null(double v) {
  return std::isfinite(v) ? format_double(v) : "null";
}

/// Series name for a histogram's bucket-estimated percentile gauge.  The
/// unit suffix stays last per Prometheus naming conventions:
/// `lat_seconds` -> `lat_p99_seconds`, `batch_size` -> `batch_size_p99`.
[[nodiscard]] std::string percentile_name(std::string_view name,
                                          std::string_view tag) {
  constexpr std::string_view kUnit = "_seconds";
  const bool has_unit = name.size() > kUnit.size() &&
                        name.substr(name.size() - kUnit.size()) == kUnit;
  std::string out(has_unit ? name.substr(0, name.size() - kUnit.size())
                           : name);
  out += '_';
  out += tag;
  if (has_unit) {
    out += kUnit;
  }
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_trace_us(double us) {
  // Round to nanosecond resolution.  Negative or non-finite timestamps
  // clamp to 0 — they only arise from clock misuse and must not produce
  // invalid JSON.
  if (!std::isfinite(us) || us < 0.0) {
    us = 0.0;
  }
  const long long thousandths = std::llround(us * 1000.0);
  const long long whole = thousandths / 1000;
  const long long frac = thousandths % 1000;
  if (frac == 0) {
    return std::to_string(whole);
  }
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%03lld", frac);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') {
    s.pop_back();
  }
  return std::to_string(whole) + "." + s;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::event(std::string_view name, std::string_view category,
                              double ts_us, double dur_us, int pid,
                              std::uint64_t tid) {
  event(name, category, ts_us, dur_us, pid, tid, {});
}

void ChromeTraceWriter::event(std::string_view name, std::string_view category,
                              double ts_us, double dur_us, int pid,
                              std::uint64_t tid, std::string_view args_json) {
  if (!first_) {
    os_ << ',';
  }
  first_ = false;
  os_ << "{\"name\":\"" << json_escape(name) << "\","
      << "\"cat\":\"" << json_escape(category) << "\","
      << "\"ph\":\"X\","
      << "\"ts\":" << format_trace_us(ts_us) << ','
      << "\"dur\":" << format_trace_us(dur_us) << ','
      << "\"pid\":" << pid << ",\"tid\":" << tid;
  if (!args_json.empty()) {
    os_ << ",\"args\":{" << args_json << '}';
  }
  os_ << '}';
}

void ChromeTraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  os_ << "],\"displayTimeUnit\":\"ns\"}";
}

void write_chrome_trace(std::span<const TraceEvent> events, std::ostream& os) {
  ChromeTraceWriter writer(os);
  std::string args;
  for (const TraceEvent& e : events) {
    // Request-scoped correlation renders as Chrome-trace args so Perfetto
    // shows one causal tree per trace id next to the thread tracks.
    args.clear();
    if (e.trace_id != 0) {
      args += "\"trace\":" + std::to_string(e.trace_id);
      args += ",\"span\":" + std::to_string(e.span_id);
      if (e.parent_id != 0) {
        args += ",\"parent\":" + std::to_string(e.parent_id);
      }
    }
    if (!e.args.empty()) {
      if (!args.empty()) {
        args += ',';
      }
      args += e.args;
    }
    writer.event(e.name, e.category, e.ts_us, e.dur_us, 0, e.tid, args);
  }
  writer.finish();
}

std::string chrome_trace_json(std::span<const TraceEvent> events) {
  std::ostringstream os;
  write_chrome_trace(events, os);
  return os.str();
}

void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& os) {
  const auto header = [&](const std::string& name, const std::string& help,
                          const char* type) {
    if (!help.empty()) {
      os << "# HELP " << name << ' ' << help << '\n';
    }
    os << "# TYPE " << name << ' ' << type << '\n';
  };
  for (const auto& c : snapshot.counters) {
    header(c.name, c.help, "counter");
    os << c.name << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    header(g.name, g.help, "gauge");
    os << g.name << ' ' << format_double(g.value) << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    header(h.name, h.help, "histogram");
    // Prometheus buckets are cumulative and end at +Inf.  Empty finite
    // buckets are skipped; counts only grow, so the series set only grows.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.data.bounds.size(); ++i) {
      if (h.data.counts[i] == 0) {
        continue;
      }
      cumulative += h.data.counts[i];
      os << h.name << "_bucket{le=\"" << format_double(h.data.bounds[i])
         << "\"} " << cumulative << '\n';
    }
    cumulative += h.data.counts.back();
    os << h.name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    os << h.name << "_sum " << format_double(h.data.sum) << '\n';
    os << h.name << "_count " << h.data.count << '\n';
  }
  // Bucket-estimated percentiles as companion gauge series, so SLO
  // numbers are scrape-able without a histogram_quantile() query.  They
  // cannot live inside the histogram family: the OpenMetrics grammar
  // only allows _bucket/_sum/_count samples under `# TYPE ... histogram`.
  // A registered metric that already owns the companion name wins, so a
  // scrape never carries two families of one name.
  std::unordered_set<std::string_view> taken;
  for (const auto& c : snapshot.counters) {
    taken.insert(c.name);
  }
  for (const auto& g : snapshot.gauges) {
    taken.insert(g.name);
  }
  for (const auto& h : snapshot.histograms) {
    constexpr std::pair<double, std::string_view> kPercentiles[] = {
        {0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}};
    for (const auto& [q, tag] : kPercentiles) {
      const double v = h.data.quantile(q);
      if (!std::isfinite(v)) {
        continue;
      }
      const std::string pname = percentile_name(h.name, tag);
      if (taken.count(pname) != 0) {
        continue;
      }
      header(pname,
             "bucket-estimated " + std::string(tag) + " of " + h.name,
             "gauge");
      os << pname << ' ' << format_double(v) << '\n';
    }
  }
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_prometheus(snapshot, os);
  return os.str();
}

void write_json_snapshot(const MetricsSnapshot& snapshot, std::ostream& os) {
  os << "{\"schema_version\":1,\"counters\":{";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    os << (first ? "" : ",") << '"' << json_escape(c.name)
       << "\":" << c.value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& g : snapshot.gauges) {
    os << (first ? "" : ",") << '"' << json_escape(g.name)
       << "\":" << json_number_or_null(g.value);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    os << (first ? "" : ",") << '"' << json_escape(h.name) << "\":{"
       << "\"count\":" << h.data.count << ",\"sum\":"
       << json_number_or_null(h.data.sum)
       << ",\"mean\":" << json_number_or_null(h.data.mean)
       << ",\"stddev\":" << json_number_or_null(h.data.stddev)
       << ",\"min\":" << json_number_or_null(h.data.min)
       << ",\"max\":" << json_number_or_null(h.data.max)
       << ",\"p50\":" << json_number_or_null(h.data.quantile(0.50))
       << ",\"p90\":" << json_number_or_null(h.data.quantile(0.90))
       << ",\"p99\":" << json_number_or_null(h.data.quantile(0.99))
       << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.data.bounds.size(); ++i) {
      if (h.data.counts[i] != 0) {
        os << "{\"le\":" << format_double(h.data.bounds[i])
           << ",\"count\":" << h.data.counts[i] << "},";
      }
    }
    os << "{\"le\":null,\"count\":" << h.data.counts.back() << "}]}";
    first = false;
  }
  os << "}}";
}

std::string json_snapshot(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_json_snapshot(snapshot, os);
  return os.str();
}

}  // namespace trident::telemetry
