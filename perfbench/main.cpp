// Repository benchmark: command-line entry point.
//
//   perfbench --workload <tiny-closed|edge-open|insitu-train> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints each metric by name and unit, the attempted/succeeded/failed
// books, then one JSON line: the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).  Exits 1 when an output was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// End-to-end metrics, in the order BENCHMARK.json lists them.
constexpr const char* kEndToEnd[] = {
    "setup_s",          "latency_p50_us", "latency_p90_us",
    "throughput_per_s", "ok_ratio",       "sim_energy_per_op_nj",
    "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <tiny-closed|edge-open|"
               "insitu-train> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return opt;
}

void print_json_number(double v) {
  // Every digit as measured; JSON has no NaN/Inf, so those print as null.
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  RunResult run;
  try {
    if (opt.workload == "tiny-closed") {
      run_tiny_closed(opt, run);
    } else if (opt.workload == "edge-open") {
      run_edge_open(opt, run);
    } else if (opt.workload == "insitu-train") {
      run_insitu_train(opt, run);
    } else {
      usage("unknown workload " + opt.workload);
    }
    run.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (opt.trace) {
      // Every per-layer metric on every workload: the layers this workload
      // does not drive are measured by short probes.
      probe_layers(opt, run);
      if (!run.layers.has("serving.submit_us.p50")) {
        probe_tiny_closed(opt, run);
      }
      if (!run.layers.has("fleet.submit_us.p50")) {
        probe_edge_open(opt, run);
      }
      if (!run.layers.has("trace.overhead_pct")) {
        // insitu-train: the per-sample traced step against the untraced
        // epoch-mean step.
        const double traced = run.layers.find("train.step_us")->value;
        const double plain = run.e2e.find("latency_p50_us")->value;
        run.layers.set("trace.overhead_pct", (traced / plain - 1.0) * 100.0,
                       "%");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }

  // Shed or kFailed requests are failed operations, not wrong outputs; a
  // wrong output is an oracle mismatch (or a non-finite training loss).
  const bool correct = run.books.mismatched == 0;
  std::cout << "workload " << opt.workload << ", seed " << opt.seed
            << ", seconds " << opt.seconds << ", trace " << opt.trace << "\n";
  for (const auto& line : run.notes) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "operations: attempted " << run.books.attempted << ", succeeded "
            << run.books.succeeded << ", failed " << run.books.failed
            << " (oracle mismatches " << run.books.mismatched << ")\n";
  const Metrics& shown = opt.trace ? run.layers : run.e2e;
  for (const auto& m : run.e2e.entries()) {
    std::cout << "  e2e " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (opt.trace) {
    for (const auto& m : run.layers.entries()) {
      std::cout << "  layer " << m.name << " = " << m.value << " " << m.unit
                << "\n";
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.books.attempted),
              static_cast<unsigned long long>(run.books.failed));
  bool first = true;
  const auto emit = [&](const Metrics::Entry& m) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  };
  if (opt.trace) {
    for (const auto& m : shown.entries()) {
      emit(m);
    }
  } else {
    for (const char* name : kEndToEnd) {
      emit(*shown.find(name));
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
