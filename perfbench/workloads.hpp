// Workloads and layer probes of the repository benchmark (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "span_trace.hpp"
#include "core/insitu_trainer.hpp"
#include "nn/dataset.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::nn {
class ExecutionPlan;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return index_.count(name) != 0;
  }
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// The entry called `name`; throws std::out_of_range when absent.
  [[nodiscard]] const Entry* find(const std::string& name) const {
    return &entries_.at(index_.at(name));
  }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Operation books: every request sent or sample trained is attempted;
/// failed = shed + kFailed + oracle mismatches (+ non-finite losses).
struct Books {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Wrong outputs: kOk responses whose bits differ from the oracle, or
  /// samples trained into a non-finite loss.
  std::uint64_t mismatched = 0;
  void add(const Books& o) {
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
    mismatched += o.mismatched;
  }
};

struct RunResult {
  Metrics e2e;
  Metrics layers;
  Books books;
  std::vector<std::string> notes;  ///< human-readable lines for the log
};

/// "name: p50 … p99 … (n=…, tail pXX=… with k beyond)" for the log.
[[nodiscard]] std::string describe(const std::string& name,
                                   const LatencyStats& s);

/// Writes a traced pass's spans to Options::trace_dir/<tag>-seed<n>.tsv.
void write_trace(const Tracer& tracer, const Options& opt,
                 const std::string& tag);

// --- the fixed models and seeded inputs ------------------------------------

/// 16-32-10 kGstPhotonic: the request-path model (forward ≈ 1 µs).
[[nodiscard]] trident::nn::Mlp tiny_model();
/// 512-1024-512-10 kGstPhotonic: the edge model (B=1 forward ≈ 1 ms).
[[nodiscard]] trident::nn::Mlp edge_model();
/// `n` inputs of width `dim`, uniform in [-1, 1], from `seed`.
[[nodiscard]] std::vector<trident::nn::Vector> input_pool(std::size_t n,
                                                          std::size_t dim,
                                                          std::uint64_t seed);

/// Adds to `oracle` (under `tier`) the reference logits of every pool input,
/// each run alone (B=1) through ExecutionPlan::run on `backend`.  Returns
/// the per-run times in µs.
std::vector<double> plan_references(const trident::nn::ExecutionPlan& plan,
                                    trident::nn::MatvecBackend& backend,
                                    const std::vector<trident::nn::Vector>& pool,
                                    Oracle& oracle, std::size_t tier);

// The insitu-train task: pattern_classes with enough pixel-flip noise that
// test accuracy plateaus near 0.7 instead of saturating at 1 (64-32-10 on
// 64 features, 10 classes, 5% flips reaches 1.0 in 3 epochs), so a change
// that alters training shows in it.
inline constexpr int kInsituFeatures = 32;
inline constexpr int kInsituClasses = 16;
inline constexpr int kInsituHidden = 64;
inline constexpr double kInsituFlip = 0.3;
inline constexpr int kInsituSamples = 6000;

/// TrainingSession config of insitu-train (and of the training probe).
[[nodiscard]] trident::core::SessionConfig insitu_config(std::uint64_t seed,
                                                         int epochs);
/// The seeded insitu-train dataset (bias feature appended).
[[nodiscard]] trident::nn::Dataset insitu_dataset(std::uint64_t seed,
                                                  int samples);

// --- workloads ------------------------------------------------------------
//
// Each fills RunResult::e2e with every end-to-end metric.  With
// Options::trace it also runs a traced pass and fills the per-layer
// metrics its layers produce (the others come from the probes below).

void run_tiny_closed(const Options& opt, RunResult& out);
void run_edge_open(const Options& opt, RunResult& out);
void run_insitu_train(const Options& opt, RunResult& out);

/// Short traced passes that fill the request-path and fleet metrics on a
/// workload that does not drive those layers itself.
void probe_tiny_closed(const Options& opt, RunResult& out);
void probe_edge_open(const Options& opt, RunResult& out);

/// Times the plan, GEMM kernels and training step in isolation.
void probe_layers(const Options& opt, RunResult& out);

}  // namespace perfbench
