// Pieces the workloads share: the fixed models, seeded input pools, oracle
// references, log formatting and span output.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/rng.hpp"
#include "nn/plan.hpp"
#include "workloads.hpp"

namespace perfbench {

using trident::Rng;
namespace nn = trident::nn;

// The served weights are fixed (seed-independent); only the inputs vary
// with --seed, so two seeds differ in traffic, not in the model.
nn::Mlp tiny_model() {
  Rng rng(0x71A7ull);
  return nn::Mlp({16, 32, 10}, nn::Activation::kGstPhotonic, rng);
}

nn::Mlp edge_model() {
  Rng rng(0xED6Eull);
  return nn::Mlp({512, 1024, 512, 10}, nn::Activation::kGstPhotonic, rng);
}

std::vector<nn::Vector> input_pool(std::size_t n, std::size_t dim,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<nn::Vector> pool(n, nn::Vector(dim));
  for (auto& x : pool) {
    for (double& v : x) {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  return pool;
}

std::vector<double> plan_references(const nn::ExecutionPlan& plan,
                                    nn::MatvecBackend& backend,
                                    const std::vector<nn::Vector>& pool,
                                    Oracle& oracle, std::size_t tier) {
  nn::PlanArena arena;
  nn::Matrix x(1, plan.input_dim());
  std::vector<double> us;
  us.reserve(pool.size());
  for (const auto& input : pool) {
    std::copy(input.begin(), input.end(), x.data().begin());
    const auto t0 = Clock::now();
    const nn::Matrix& y = plan.run(backend, x, arena);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    oracle.add(tier, y.data());
  }
  return us;
}

std::string describe(const std::string& name, const LatencyStats& s) {
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o.precision(1);
  o << name << ": p50 " << s.p50 << " us, p99 " << s.p99 << " us (n=" << s.count;
  if (s.tail.ok) {
    o << "; supported tail p" << std::defaultfloat << std::setprecision(6)
      << s.tail.q * 100.0 << std::fixed << std::setprecision(1) << " = "
      << s.tail.value
      << " us with " << s.tail.beyond << " beyond";
  }
  o << ")";
  return o.str();
}

void write_trace(const Tracer& tracer, const Options& opt,
                 const std::string& tag) {
  if (opt.trace_dir.empty()) {
    return;
  }
  const std::string path =
      opt.trace_dir + "/" + tag + "-seed" + std::to_string(opt.seed) + ".tsv";
  if (!tracer.write(path)) {
    std::cerr << "perfbench: could not write spans to " << path << "\n";
  }
}

}  // namespace perfbench
