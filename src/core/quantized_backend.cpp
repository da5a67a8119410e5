#include "core/quantized_backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "nn/int8_gemm.hpp"
#include "nn/plan.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::core {

namespace {

struct QuantizedMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& plan_compiles =
      reg.counter("trident_quantized_plan_compiles_total",
                  "weight matrices compiled into packed int8 level panels");
  telemetry::Counter& plan_reuse =
      reg.counter("trident_quantized_plan_reuse_total",
                  "plan-cache hits (fingerprint matched, panel reused)");
  telemetry::Counter& plan_recompiles =
      reg.counter("trident_quantized_plan_recompiles_total",
                  "plan-cache entries rebuilt after a content change "
                  "(hot-swap or in-situ update mutated the buffer)");
};

QuantizedMetrics& metrics() {
  static QuantizedMetrics m;
  return m;
}

/// splitmix64 finisher: full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Content hash of the weight buffer.  The plan cache keys panels by matrix
/// address, but weight hot-swap copy-assigns new values into the SAME
/// allocation — the fingerprint is what actually decides whether the
/// compiled panel is still the matrix in front of us.  It runs on EVERY
/// lookup, so it is on the fast path's critical path: four independent
/// xor-multiply lanes (word-at-a-time, multiplies pipelined) keep it an
/// order of magnitude cheaper than a byte-serial FNV while still
/// avalanching every input bit through the splitmix64 finisher.
std::uint64_t fingerprint_of(const std::vector<double>& data) {
  std::uint64_t h0 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h1 = 0xbf58476d1ce4e5b9ull;
  std::uint64_t h2 = 0x94d049bb133111ebull;
  std::uint64_t h3 = 0x2545f4914f6cdd1dull;
  constexpr std::uint64_t kMul = 0x9ddfea08eb382d69ull;
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = std::rotl((h0 ^ std::bit_cast<std::uint64_t>(data[i])) * kMul, 27);
    h1 = std::rotl((h1 ^ std::bit_cast<std::uint64_t>(data[i + 1])) * kMul, 29);
    h2 = std::rotl((h2 ^ std::bit_cast<std::uint64_t>(data[i + 2])) * kMul, 31);
    h3 = std::rotl((h3 ^ std::bit_cast<std::uint64_t>(data[i + 3])) * kMul, 33);
  }
  for (; i < n; ++i) {
    h0 = std::rotl((h0 ^ std::bit_cast<std::uint64_t>(data[i])) * kMul, 27);
  }
  return mix64(mix64(h0 + n) ^ mix64(h1) ^ mix64(h2) ^ mix64(h3));
}

/// max(1, max|row|): the per-sample DAC pre-scale PhotonicBackend applies.
double dac_scale(std::span<const double> row) {
  double s = 1.0;
  for (double v : row) {
    s = std::max(s, std::abs(v));
  }
  return s;
}

/// Exact Lipschitz constant of the (piecewise-linear, kink-at-zero)
/// activations: the steeper of the two unit slopes.  Measuring it from
/// apply_activation keeps the bound honest if the GST slope ever changes.
double activation_lipschitz(nn::Activation act) {
  const double pos = std::abs(nn::apply_activation(act, 1.0) -
                              nn::apply_activation(act, 0.0));
  const double neg = std::abs(nn::apply_activation(act, 0.0) -
                              nn::apply_activation(act, -1.0));
  return std::max(pos, neg);
}

}  // namespace

QuantizedBackend::QuantizedBackend(const QuantizedBackendConfig& config)
    : config_(config),
      weight_quantizer_(config.weight_bits, 1.0),
      input_quantizer_(config.input_bits, 1.0) {
  TRIDENT_REQUIRE(config.weight_bits >= 1 && config.weight_bits <= 8,
                  "quantized tier weight grid must fit int8");
  TRIDENT_REQUIRE(config.input_bits >= 1 && config.input_bits <= 8,
                  "quantized tier input grid must fit int8");
}

const QuantizedBackend::WeightPlan& QuantizedBackend::plan_for(
    const nn::Matrix& w) {
  const std::uint64_t fp = fingerprint_of(w.data());
  WeightPlan& plan = plans_[static_cast<const void*>(&w)];
  if (!plan.levels.empty() && plan.fingerprint == fp &&
      plan.rows == w.rows() && plan.cols == w.cols()) {
    if (telemetry::enabled()) {
      metrics().plan_reuse.add(1);
    }
    return plan;
  }
  if (telemetry::enabled()) {
    if (plan.levels.empty()) {
      metrics().plan_compiles.add(1);
    } else {
      metrics().plan_recompiles.add(1);
    }
  }
  plan.rows = w.rows();
  plan.cols = w.cols();
  plan.fingerprint = fp;
  plan.levels.resize(w.size());
  // to_level saturates outside [-1, 1], which doubles as the clamp the
  // photonic path applies to externally-set out-of-range weights.
  weight_quantizer_.to_levels(w.data(), plan.levels);
  return plan;
}

void QuantizedBackend::ensure_programmed(const nn::Matrix& w) {
  if (resident_matrix_ == static_cast<const void*>(&w)) {
    return;  // non-volatile weights are still loaded — free reuse
  }
  ledger_.weight_writes += w.size();
  ledger_.program_events += 1;
  PhotonicLedger d;
  d.weight_writes = w.size();
  d.program_events = 1;
  detail::mirror_ledger_delta(d);
  resident_matrix_ = static_cast<const void*>(&w);
}

nn::Matrix QuantizedBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.cols(), "matmul dimension mismatch");
  const WeightPlan& plan = plan_for(w);
  ensure_programmed(w);
  const std::size_t batch = x.rows();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();

  // Per-sample DAC scale, then one int8 quantization pass over the block.
  std::vector<double> scale(batch, 1.0);
  std::vector<std::int8_t> xq(batch * cols);
  std::vector<double> scaled(cols);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto row = x.row(b);
    const double s = dac_scale(row);
    scale[b] = s;
    for (std::size_t c = 0; c < cols; ++c) {
      scaled[c] = row[c] / s;
    }
    input_quantizer_.to_levels(
        scaled, std::span<std::int8_t>(xq.data() + b * cols, cols));
  }

  std::vector<std::int32_t> acc(batch * rows);
  nn::int8_gemm(plan.levels.data(), rows, cols, xq.data(), batch, acc.data());

  // TIA re-scale: one multiply per output.  The int32 accumulation is exact,
  // so row b is bit-identical whether it ran alone or inside this block.
  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  nn::Matrix y(batch, rows);
  for (std::size_t b = 0; b < batch; ++b) {
    auto yr = y.row(b);
    const std::int32_t* ar = acc.data() + b * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      yr[r] = static_cast<double>(ar[r]) * unit * scale[b];
    }
  }

  ledger_.symbols += batch;
  ledger_.macs += batch * w.size();
  ledger_.activations += batch * w.rows();
  PhotonicLedger d;
  d.symbols = batch;
  d.macs = batch * w.size();
  d.activations = batch * w.rows();
  detail::mirror_ledger_delta(d);
  return y;
}

bool QuantizedBackend::run_plan(const nn::ExecutionPlan& plan,
                                const nn::Matrix& x, nn::PlanArena& arena) {
  if (plan.config().weight_bits != config_.weight_bits) {
    return false;  // panel grid mismatch — interpret per-op (re-packs right)
  }
  const std::size_t batch = x.rows();
  const int depth = plan.depth();
  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  const nn::Matrix* cur = &x;
  nn::Vector& scale = arena.scale();
  nn::Vector& scaled = arena.scratch();
  std::vector<std::int8_t>& xq = arena.int8_input();
  std::vector<std::int32_t>& acc = arena.int32_acc();
  for (int k = 0; k < depth; ++k) {
    const nn::PlanLayer& layer = plan.layer(k);
    const std::size_t rows = layer.rows;
    const std::size_t cols = layer.cols;
    TRIDENT_REQUIRE(cols <= nn::kInt8GemmMaxCols,
                    "layer fan-in too large for exact int32 accumulation");
    ensure_programmed(layer.weights);

    for (std::size_t b = 0; b < batch; ++b) {
      const auto row = cur->row(b);
      const double s = dac_scale(row);
      scale[b] = s;
      for (std::size_t c = 0; c < cols; ++c) {
        scaled[c] = row[c] / s;
      }
      input_quantizer_.to_levels(
          std::span<const double>(scaled.data(), cols),
          std::span<std::int8_t>(xq.data() + b * cols, cols));
    }

    // The plan's immutable panel replaces plan_for: no per-call content
    // fingerprint, because published plans never mutate.
    nn::int8_gemm(layer.levels.data(), rows, cols, xq.data(), batch,
                  acc.data());

    // Fused epilogue: the TIA re-scale and the activation land in one pass
    // over the output block.  Routing the rescaled value through a register
    // instead of memory does not change its bits, so this matches the
    // legacy rescale-then-activate sequence exactly.
    const bool last = (k == depth - 1);
    nn::Matrix& y = last ? arena.out() : arena.act(k);
    y.reshape(batch, rows);
    for (std::size_t b = 0; b < batch; ++b) {
      auto yr = y.row(b);
      const std::int32_t* ar = acc.data() + b * rows;
      if (last) {
        for (std::size_t r = 0; r < rows; ++r) {
          yr[r] = static_cast<double>(ar[r]) * unit * scale[b];
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          yr[r] = nn::apply_activation(
              layer.activation,
              static_cast<double>(ar[r]) * unit * scale[b]);
        }
      }
    }

    ledger_.symbols += batch;
    ledger_.macs += batch * layer.weights.size();
    ledger_.activations += batch * rows;
    PhotonicLedger d;
    d.symbols = batch;
    d.macs = batch * layer.weights.size();
    d.activations = batch * rows;
    detail::mirror_ledger_delta(d);

    if (!last) {
      cur = &y;
    }
  }
  return true;
}

nn::Vector QuantizedBackend::matvec(const nn::Matrix& w, const nn::Vector& x) {
  TRIDENT_REQUIRE(x.size() == w.cols(), "matvec dimension mismatch");
  nn::Matrix xm(1, x.size());
  std::copy(x.begin(), x.end(), xm.data().begin());
  // Batch-of-one through the block path: same kernels, same scaling order,
  // same ledger charges — bit-identity with matmul rows is structural.
  const nn::Matrix y = matmul(w, xm);
  const auto row = y.row(0);
  return nn::Vector(row.begin(), row.end());
}

nn::Matrix QuantizedBackend::matmul_transposed(const nn::Matrix& w,
                                               const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.rows(), "transposed matmul dimension mismatch");
  const WeightPlan& plan = plan_for(w);
  const std::size_t batch = x.rows();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();

  // Same accounting as the photonic path: every gradient symbol pair
  // re-encodes the bank with Wᵀ, and the forward layout is gone after.
  ledger_.weight_writes += batch * w.size();
  ledger_.program_events += batch;
  PhotonicLedger dw;
  dw.weight_writes = batch * w.size();
  dw.program_events = batch;
  detail::mirror_ledger_delta(dw);
  resident_matrix_ = nullptr;

  std::vector<double> scale(batch, 1.0);
  std::vector<std::int8_t> xq(batch * rows);
  std::vector<double> scaled(rows);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto row = x.row(b);
    const double s = dac_scale(row);
    scale[b] = s;
    for (std::size_t r = 0; r < rows; ++r) {
      scaled[r] = row[r] / s;
    }
    input_quantizer_.to_levels(
        scaled, std::span<std::int8_t>(xq.data() + b * rows, rows));
  }

  std::vector<std::int32_t> acc(batch * cols);
  nn::int8_gemm_transposed(plan.levels.data(), rows, cols, xq.data(), batch,
                           acc.data());

  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  nn::Matrix y(batch, cols);
  for (std::size_t b = 0; b < batch; ++b) {
    auto yr = y.row(b);
    const std::int32_t* ar = acc.data() + b * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = static_cast<double>(ar[c]) * unit * scale[b];
    }
  }

  ledger_.symbols += 2 * batch;  // signed gradients: two polarity symbols
  ledger_.macs += batch * w.size();
  PhotonicLedger dr;
  dr.symbols = 2 * batch;
  dr.macs = batch * w.size();
  detail::mirror_ledger_delta(dr);
  return y;
}

nn::Vector QuantizedBackend::matvec_transposed(const nn::Matrix& w,
                                               const nn::Vector& x) {
  TRIDENT_REQUIRE(x.size() == w.rows(), "transposed matvec dimension mismatch");
  nn::Matrix xm(1, x.size());
  std::copy(x.begin(), x.end(), xm.data().begin());
  nn::Matrix y = matmul_transposed(w, xm);
  const auto row = y.row(0);
  return nn::Vector(row.begin(), row.end());
}

void QuantizedBackend::rank1_update(nn::Matrix& w, const nn::Vector& dh,
                                    const nn::Vector& y_prev, double lr) {
  TRIDENT_REQUIRE(dh.size() == w.rows() && y_prev.size() == w.cols(),
                  "rank-1 update dimension mismatch");
  ledger_.symbols += w.rows();
  ledger_.macs += w.size();

  // Deterministic in-situ update on the weight grid: identical to a
  // noise-free PhotonicBackend (round-to-nearest level, sub-LSB loss).
  std::uint64_t changed = 0;
  for (std::size_t r = 0; r < w.rows(); ++r) {
    auto row = w.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      const double target = row[c] - lr * dh[r] * y_prev[c];
      const double quantized =
          weight_quantizer_.quantize(std::clamp(target, -1.0, 1.0));
      if (quantized != row[c]) {
        row[c] = quantized;
        ++changed;
      }
    }
  }
  ledger_.weight_writes += changed;
  if (changed > 0) {
    ledger_.program_events += 1;
    resident_matrix_ = nullptr;
    plans_.erase(static_cast<const void*>(&w));  // panel is stale
  }
  PhotonicLedger d;
  d.weight_writes = changed;
  d.program_events = changed > 0 ? 1 : 0;
  d.symbols = w.rows();
  d.macs = w.size();
  detail::mirror_ledger_delta(d);
}

double QuantizedBackend::matmul_error_bound(std::size_t cols,
                                            double x_scale) const {
  const double eps = std::numeric_limits<double>::epsilon();
  const double we = weight_quantizer_.step() / 2.0;
  const double xe = input_quantizer_.step() / 2.0;
  const double n = static_cast<double>(cols);
  return x_scale * n * (we + xe + we * xe + 4.0 * n * eps);
}

double QuantizedBackend::plan_error_bound(const nn::ExecutionPlan& plan,
                                          double max_abs_x) const {
  double m = max_abs_x;
  double e = 0.0;
  for (int k = 0; k < plan.depth(); ++k) {
    const nn::PlanLayer& layer = plan.layer(k);
    const double lipschitz = activation_lipschitz(layer.activation);
    const double s = std::max(1.0, m + e);
    e = lipschitz * (matmul_error_bound(layer.cols, s) + layer.norm_inf * e);
    m = lipschitz * layer.norm_inf * m;
  }
  return e;
}

}  // namespace trident::core
