// Layer probes: each layer's public functions timed in isolation, on
// private backends and arenas, so a traced run of any workload reports
// the plan, kernel and training-step figures next to its own.
#include <cmath>
#include <functional>
#include <sstream>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "nn/int8_gemm.hpp"
#include "nn/plan.hpp"
#include "serving/server.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nn = trident::nn;
namespace core = trident::core;
namespace serving = trident::serving;

/// Median µs of `fn` over repeats filling about `budget_s` (at least 5).
double time_us(const std::function<void()>& fn, double budget_s,
               Tracer::Log& log, const char* span) {
  for (int i = 0; i < 2; ++i) {
    fn();  // warm: arena growth, bank programming, page faults
  }
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(budget_s));
  std::uint64_t id = 0;
  while (us.size() < 5 || (Clock::now() < stop && us.size() < 20'000)) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    log.add(span, ++id, 0, t0, t1);
    us.push_back(seconds_between(t0, t1) * 1e6);
  }
  return median(us);
}

nn::Matrix random_block(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  trident::Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  return m;
}

struct KernelTimes {
  double f64_us = 0.0;
  double int8_us = 0.0;
};

/// Times Matrix::matmul_into and nn::int8_gemm on layer `k`'s panels at
/// batch `b`; with `report`, records GMAC/s and the computed byte counts.
KernelTimes probe_kernels(const nn::ExecutionPlan& plan, int k, std::size_t b,
                          std::uint64_t seed, Tracer::Log& log, bool report,
                          RunResult& out) {
  const nn::PlanLayer& layer = plan.layer(k);
  const nn::Matrix x = random_block(b, layer.cols, seed + static_cast<std::uint64_t>(k));
  nn::Matrix y(b, layer.rows);
  std::vector<std::int8_t> xi(b * layer.cols);
  trident::Rng rng(seed ^ 0x18);
  for (auto& v : xi) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  std::vector<std::int32_t> yi(b * layer.rows);
  KernelTimes t;
  t.f64_us = time_us([&] { layer.clamped.matmul_into(x, y); }, 0.05, log,
                     "kernel.f64");
  t.int8_us = time_us(
      [&] {
        nn::int8_gemm(layer.levels.data(), layer.rows, layer.cols, xi.data(), b,
                      yi.data());
      },
      0.05, log, "kernel.int8");
  if (report) {
    const double macs = static_cast<double>(layer.rows * layer.cols * b);
    const double f64_bytes =
        8.0 * static_cast<double>(layer.rows * layer.cols + b * layer.cols +
                                  b * layer.rows);
    const double i8_bytes = static_cast<double>(layer.rows * layer.cols +
                                                b * layer.cols) +
                            4.0 * static_cast<double>(b * layer.rows);
    const std::string tag =
        ".L" + std::to_string(k + 1) + ".b" + std::to_string(b);
    out.layers.set("kernel.f64_gmacs" + tag, macs / t.f64_us / 1e3, "GMAC/s");
    out.layers.set("kernel.int8_gmacs" + tag, macs / t.int8_us / 1e3, "GMAC/s");
    std::ostringstream o;
    o << "kernel L" << k + 1 << " " << layer.rows << "x" << layer.cols << " b" << b
      << ": " << macs << " MACs; computed bytes f64 " << f64_bytes << ", int8 "
      << i8_bytes << "; f64 " << t.f64_us << " us, int8 " << t.int8_us << " us";
    out.notes.push_back(o.str());
  }
  return t;
}

void probe_model(const char* name, const nn::Mlp& model, std::uint64_t seed,
                 Tracer::Log& log, bool kernels, RunResult& out) {
  serving::ServerConfig node;
  node.enable_fast_tier = true;
  const nn::PlanConfig pc = serving::Server::plan_config_for(node);
  std::shared_ptr<const nn::ExecutionPlan> plan;
  const double compile_us = time_us(
      [&] { plan = nn::ExecutionPlan::compile(model, pc); }, 0.1, log,
      "plan.compile");
  out.layers.set(std::string("plan.compile_us.") + name, compile_us, "us");

  core::PhotonicBackend exact(node.backend);
  core::QuantizedBackend fast(node.fast_backend);
  const struct {
    const char* tier;
    nn::MatvecBackend* backend;
  } tiers[] = {{"exact", &exact}, {"fast", &fast}};
  for (const auto& t : tiers) {
    for (std::size_t b : {std::size_t{1}, std::size_t{16}}) {
      const nn::Matrix x = random_block(b, plan->input_dim(), seed + b);
      nn::PlanArena arena;
      const double us = time_us([&] { (void)plan->run(*t.backend, x, arena); },
                                0.15, log, "plan.run");
      const std::string key = std::string(name) + "." + t.tier + ".b" +
                              std::to_string(b);
      out.layers.set("plan.forward_us." + key, us, "us");
      if (b == 16) {
        double gemm_us = 0.0;
        for (int k = 0; k < plan->depth(); ++k) {
          const KernelTimes kt =
              probe_kernels(*plan, k, b, seed, log,
                            kernels && std::string(t.tier) == "exact", out);
          gemm_us += std::string(t.tier) == "exact" ? kt.f64_us : kt.int8_us;
        }
        out.layers.set("plan.gemm_share." + key, gemm_us / us, "ratio");
      }
    }
  }
  if (kernels) {
    for (int k = 0; k < plan->depth(); ++k) {
      (void)probe_kernels(*plan, k, 1, seed, log, true, out);
    }
  }
}

/// Per-sample in-situ SGD on the insitu-train config: Mlp::forward and
/// Mlp::backward timed apart, and the ledger's per-sample deltas.
void probe_training(std::uint64_t seed, Tracer::Log& log, RunResult& out) {
  constexpr int kSamples = 1200;
  const core::SessionConfig cfg = insitu_config(seed, 1);
  trident::Rng init(cfg.init_seed);
  nn::Mlp net(cfg.layer_sizes, cfg.activation, init);
  core::PhotonicBackend backend(cfg.hardware);
  const auto [train, test] =
      insitu_dataset(seed, kSamples).split(cfg.test_fraction);

  std::vector<double> fwd_us;
  std::vector<double> bwd_us;
  std::vector<double> step_us;
  double loss = 0.0;
  const core::PhotonicLedger before = backend.ledger();
  for (std::size_t i = 0; i < train.size(); ++i) {
    const auto t0 = Clock::now();
    const nn::ForwardTrace trace = net.forward(train.inputs[i], backend);
    const auto t1 = Clock::now();
    const nn::LossGrad lg =
        nn::softmax_cross_entropy(trace.activations.back(), train.labels[i]);
    const auto t2 = Clock::now();
    net.backward(trace, lg.grad, cfg.schedule.learning_rate, backend);
    const auto t3 = Clock::now();
    const std::uint64_t id = 3 * (i + 1);
    log.add("train.step", id, 0, t0, t3);
    log.add("train.forward", id + 1, id, t0, t1);
    log.add("train.backward", id + 2, id, t2, t3);
    fwd_us.push_back(seconds_between(t0, t1) * 1e6);
    bwd_us.push_back(seconds_between(t2, t3) * 1e6);
    step_us.push_back(seconds_between(t0, t3) * 1e6);
    loss += lg.loss;
  }
  const core::PhotonicLedger d = backend.ledger() - before;
  const auto n = static_cast<double>(train.size());
  out.layers.set("train.forward_us", median(fwd_us), "us");
  out.layers.set("train.backward_us", median(bwd_us), "us");
  out.layers.set("train.step_us", median(step_us), "us");
  out.layers.set("train.gst_writes_per_sample",
                 static_cast<double>(d.weight_writes) / n, "count");
  out.layers.set("train.program_events_per_sample",
                 static_cast<double>(d.program_events) / n, "count");
  out.layers.set("train.macs_per_sample", static_cast<double>(d.macs) / n,
                 "count");
  if (!out.layers.has("train.test_accuracy")) {
    // One pass over a small slice: a probe figure, not the workload's.
    out.layers.set("train.test_accuracy", nn::evaluate(net, test, backend),
                   "ratio");
    out.layers.set("train.final_loss", loss / n, "nats");
  }
}

}  // namespace

void probe_layers(const Options& opt, RunResult& out) {
  Tracer tracer;
  Tracer::Log& log = tracer.thread_log();
  probe_model("tiny", tiny_model(), opt.seed, log, false, out);
  probe_model("edge", edge_model(), opt.seed, log, true, out);
  probe_training(opt.seed, log, out);
  write_trace(tracer, opt, "probe-layers");
}

}  // namespace perfbench
