#include "core/quantized_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "core/stochastic_update.hpp"
#include "nn/int8_gemm.hpp"
#include "nn/plan.hpp"

namespace trident::core {

namespace {

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

void QuantizedBackend::rescale(const std::int32_t* acc,
                               std::span<const double> scale,
                               nn::Matrix& y) const {
  // TIA re-scale: one multiply per output.  The int32 accumulation is exact,
  // so row b is bit-identical whether it ran alone or inside a block.
  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  for (std::size_t b = 0; b < y.rows(); ++b) {
    auto yr = y.row(b);
    const std::int32_t* ar = acc + b * y.cols();
    for (std::size_t j = 0; j < yr.size(); ++j) {
      yr[j] = static_cast<double>(ar[j]) * unit * scale[b];
    }
  }
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
  weight_levels_.resize(w.size());
  pack_levels(w.data(), weight_quantizer_, weight_levels_);
  ensure_programmed(w);
  const std::size_t batch = x.rows();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();

  // The photonic input DAC, with level indices out for the int8 GEMM.
  std::vector<double> scale(batch);
  std::vector<std::int8_t> xq(batch * cols);
  dac_quantize(x.data(), cols, input_quantizer_, scale, xq);

  std::vector<std::int32_t> acc(batch * rows);
  nn::int8_gemm(weight_levels_.data(), rows, cols, xq.data(), batch,
                acc.data());

  nn::Matrix y(batch, rows);
  rescale(acc.data(), scale, y);

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
  std::vector<std::int8_t>& xq = arena.int8_input();
  std::vector<std::int32_t>& acc = arena.int32_acc();
  for (int k = 0; k < depth; ++k) {
    const nn::PlanLayer& layer = plan.layer(k);
    const std::size_t rows = layer.rows;
    const std::size_t cols = layer.cols;
    TRIDENT_REQUIRE(cols <= nn::kInt8GemmMaxCols,
                    "layer fan-in too large for exact int32 accumulation");
    ensure_programmed(layer.weights);
    dac_quantize(cur->data(), cols, input_quantizer_, scale,
                 std::span(xq).first(batch * cols));

    // The plan's immutable panel replaces the per-call re-pack matmul does.
    nn::int8_gemm(layer.levels.data(), rows, cols, xq.data(), batch,
                  acc.data());

    // Hidden layers fuse the TIA re-scale and the activation into one pass
    // over the output block.  Routing the rescaled value through a register
    // instead of memory does not change its bits, so this matches the
    // rescale-then-activate sequence of forward_batch exactly.
    const bool last = (k == depth - 1);
    nn::Matrix& y = last ? arena.out() : arena.act(k);
    y.reshape(batch, rows);
    if (last) {
      rescale(acc.data(), scale, y);
    } else {
      for (std::size_t b = 0; b < batch; ++b) {
        auto yr = y.row(b);
        const std::int32_t* ar = acc.data() + b * rows;
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

nn::Matrix QuantizedBackend::matmul_transposed(const nn::Matrix& w,
                                               const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.rows(), "transposed matmul dimension mismatch");
  weight_levels_.resize(w.size());
  pack_levels(w.data(), weight_quantizer_, weight_levels_);
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

  std::vector<double> scale(batch);
  std::vector<std::int8_t> xq(batch * rows);
  dac_quantize(x.data(), rows, input_quantizer_, scale, xq);

  std::vector<std::int32_t> acc(batch * cols);
  nn::int8_gemm_transposed(weight_levels_.data(), rows, cols, xq.data(), batch,
                           acc.data());

  nn::Matrix y(batch, cols);
  rescale(acc.data(), scale, y);

  ledger_.symbols += 2 * batch;  // signed gradients: two polarity symbols
  ledger_.macs += batch * w.size();
  PhotonicLedger dr;
  dr.symbols = 2 * batch;
  dr.macs = batch * w.size();
  detail::mirror_ledger_delta(dr);
  return y;
}

void QuantizedBackend::update_batch(nn::Matrix& w, const nn::Matrix& dh,
                                    const nn::Matrix& y_prev, double lr) {
  TRIDENT_REQUIRE(dh.rows() == y_prev.rows(), "update batch mismatch");
  TRIDENT_REQUIRE(dh.cols() == w.rows() && y_prev.cols() == w.cols(),
                  "update dimension mismatch");
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto dhb = dh.row(b);
    const auto yb = y_prev.row(b);
    ledger_.symbols += w.rows();
    ledger_.macs += w.size();

    // Deterministic in-situ update on the weight grid: the same step as a
    // noise-free PhotonicBackend (round-to-nearest level, sub-LSB loss).
    const std::uint64_t changed = nearest_round_update(
        w.data().data(), w.rows(), w.cols(), dhb.data(), yb.data(), lr,
        weight_quantizer_.step());
    ledger_.weight_writes += changed;
    if (changed > 0) {
      ledger_.program_events += 1;
      resident_matrix_ = nullptr;
    }
    PhotonicLedger d;
    d.weight_writes = changed;
    d.program_events = changed > 0 ? 1 : 0;
    d.symbols = w.rows();
    d.macs = w.size();
    detail::mirror_ledger_delta(d);
  }
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
