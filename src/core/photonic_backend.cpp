#include "core/photonic_backend.hpp"

#include <algorithm>
#include <cmath>

#include "core/stochastic_update.hpp"
#include "nn/plan.hpp"
#include "photonics/constants.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::core {

namespace {

using namespace trident::units::literals;

/// Process-wide backend metrics.  The ledger counters mirror every
/// PhotonicLedger increment exactly (same integers, added at the same
/// sites), so a metrics snapshot reconstructs the summed ledger of all
/// backends in the process bit-for-bit — including its energy()/time().
struct BackendMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& weight_writes =
      reg.counter("trident_ledger_weight_writes_total",
                  "GST cells programmed (PhotonicLedger::weight_writes)");
  telemetry::Counter& program_events =
      reg.counter("trident_ledger_program_events_total",
                  "parallel bank writes (PhotonicLedger::program_events)");
  telemetry::Counter& symbols =
      reg.counter("trident_ledger_symbols_total",
                  "optical symbols streamed (PhotonicLedger::symbols)");
  telemetry::Counter& macs = reg.counter(
      "trident_ledger_macs_total", "ring read-outs (PhotonicLedger::macs)");
  telemetry::Counter& activations =
      reg.counter("trident_ledger_activations_total",
                  "GST activation firings (PhotonicLedger::activations)");
  telemetry::Counter& quantize_passes =
      reg.counter("trident_backend_quantize_passes_total",
                  "input/weight quantization passes over a vector or block");
  telemetry::Counter& matmul_calls = reg.counter(
      "trident_backend_matmul_total", "batched forward matmul calls");
  telemetry::Counter& matmul_transposed_calls =
      reg.counter("trident_backend_matmul_transposed_total",
                  "batched gradient-vector calls");
  telemetry::Counter& insitu_updates =
      reg.counter("trident_backend_insitu_updates_total",
                  "per-sample in-situ weight-update steps");
  telemetry::Counter& program_reuse =
      reg.counter("trident_backend_program_reuse_total",
                  "forward calls served by resident non-volatile weights "
                  "(the 0.67 W -> 0.11 W effect)");
};

BackendMetrics& metrics() {
  static BackendMetrics m;
  return m;
}

/// Mirrors a ledger delta into the metric counters (call sites pass the
/// exact amounts they just added to the PhotonicLedger).
void note_ledger(std::uint64_t weight_writes, std::uint64_t program_events,
                 std::uint64_t symbols, std::uint64_t macs,
                 std::uint64_t activations) {
  BackendMetrics& m = metrics();
  if (weight_writes != 0) {
    m.weight_writes.add(weight_writes);
  }
  if (program_events != 0) {
    m.program_events.add(program_events);
  }
  if (symbols != 0) {
    m.symbols.add(symbols);
  }
  if (macs != 0) {
    m.macs.add(macs);
  }
  if (activations != 0) {
    m.activations.add(activations);
  }
}

/// Per-MAC detection energy from Table III (17.1 mW / 256 rings / clock).
[[nodiscard]] units::Energy read_energy_per_mac() {
  return phot::kGstMrrReadPowerPerPe * units::period(phot::kClockRate) /
         static_cast<double>(phot::kMrrsPerPe);
}

/// Per-activation GST reset energy from Table III (53.3 mW / 16 rows / clock).
[[nodiscard]] units::Energy reset_energy_per_activation() {
  return phot::kGstActivationResetPower * units::period(phot::kClockRate) /
         static_cast<double>(phot::kWeightBankRows);
}

/// Per-symbol per-channel input energy (laser share + E/O laser).
[[nodiscard]] units::Energy input_energy_per_element() {
  return (units::Power::milliwatts(1.0) + phot::kEoLaserPower) *
         units::period(phot::kClockRate);
}

/// The weights saturated to the add-drop [-1, 1] range: `w` itself when
/// every weight is already in range (update_batch stores only clamped
/// levels; clamp is the identity there and for NaN), else a clamped copy of
/// externally-set out-of-range values, built in `clamped`.
const nn::Matrix& saturated(const nn::Matrix& w, nn::Matrix& clamped) {
  const auto& v = w.data();
  if (std::none_of(v.begin(), v.end(),
                   [](double x) { return x < -1.0 || x > 1.0; })) {
    return w;
  }
  clamped = w;
  for (double& x : clamped.data()) {
    x = std::clamp(x, -1.0, 1.0);
  }
  return clamped;
}

}  // namespace

namespace detail {

void mirror_ledger_delta(const PhotonicLedger& delta) {
  if (!telemetry::enabled()) {
    return;
  }
  note_ledger(delta.weight_writes, delta.program_events, delta.symbols,
              delta.macs, delta.activations);
}

}  // namespace detail

PhotonicLedger operator-(const PhotonicLedger& after,
                         const PhotonicLedger& before) {
  TRIDENT_REQUIRE(after.weight_writes >= before.weight_writes &&
                      after.program_events >= before.program_events &&
                      after.symbols >= before.symbols &&
                      after.macs >= before.macs &&
                      after.activations >= before.activations,
                  "ledger delta: `before` is not an earlier snapshot");
  PhotonicLedger d;
  d.weight_writes = after.weight_writes - before.weight_writes;
  d.program_events = after.program_events - before.program_events;
  d.symbols = after.symbols - before.symbols;
  d.macs = after.macs - before.macs;
  d.activations = after.activations - before.activations;
  return d;
}

PhotonicLedger operator+(const PhotonicLedger& a, const PhotonicLedger& b) {
  PhotonicLedger s;
  s.weight_writes = a.weight_writes + b.weight_writes;
  s.program_events = a.program_events + b.program_events;
  s.symbols = a.symbols + b.symbols;
  s.macs = a.macs + b.macs;
  s.activations = a.activations + b.activations;
  return s;
}

units::Energy PhotonicLedger::energy() const {
  return phot::kGstWriteEnergy * static_cast<double>(weight_writes) +
         read_energy_per_mac() * static_cast<double>(macs) +
         input_energy_per_element() * static_cast<double>(symbols) +
         reset_energy_per_activation() * static_cast<double>(activations);
}

units::Time PhotonicLedger::time() const {
  return phot::kGstWriteTime * static_cast<double>(program_events) +
         units::period(phot::kClockRate) * static_cast<double>(symbols);
}

PhotonicBackend::PhotonicBackend(const PhotonicBackendConfig& config)
    : config_(config),
      weight_quantizer_(config.weight_bits, 1.0),
      input_quantizer_(config.input_bits, 1.0),
      rng_(config.seed) {}

void PhotonicBackend::ensure_programmed(const nn::Matrix& w) {
  if (resident_matrix_ == static_cast<const void*>(&w)) {
    if (telemetry::enabled()) {
      metrics().program_reuse.add(1);
    }
    return;  // non-volatile weights are still loaded — free reuse
  }
  ledger_.weight_writes += w.size();
  ledger_.program_events += 1;
  if (telemetry::enabled()) {
    note_ledger(w.size(), 1, 0, 0, 0);
  }
  resident_matrix_ = static_cast<const void*>(&w);
}

void PhotonicBackend::noise_and_rescale(nn::Matrix& y,
                                        const nn::Vector& scale) {
  // Read-out noise and TIA re-scaling; draws run per sample, then per row.
  for (std::size_t b = 0; b < y.rows(); ++b) {
    auto yr = y.row(b);
    for (double& v : yr) {
      if (config_.readout_noise > 0.0) {
        v += rng_.normal(0.0, config_.readout_noise);
      }
      v *= scale[b];
    }
  }
}

nn::Matrix PhotonicBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.cols(), "matmul dimension mismatch");
  ensure_programmed(w);
  const std::size_t batch = x.rows();

  // Input DAC: hardware range is [-1, 1] after the polarity split, so each
  // sample is electronically pre-scaled into range and the scale re-applied
  // at the TIA.
  nn::Vector scale(batch);
  nn::Matrix xq(batch, x.cols());
  dac_quantize(x.data(), x.cols(), input_quantizer_, scale, xq.data());

  nn::Matrix clamped;
  nn::Matrix y = saturated(w, clamped).matmul(xq);
  noise_and_rescale(y, scale);

  ledger_.symbols += batch;
  ledger_.macs += batch * w.size();
  ledger_.activations += batch * w.rows();
  if (telemetry::enabled()) {
    note_ledger(0, 0, batch, batch * w.size(), batch * w.rows());
    metrics().matmul_calls.add(1);
    metrics().quantize_passes.add(1);
  }
  return y;
}

bool PhotonicBackend::run_plan(const nn::ExecutionPlan& plan,
                               const nn::Matrix& x, nn::PlanArena& arena) {
  const std::size_t batch = x.rows();
  const int depth = plan.depth();
  const nn::Matrix* cur = &x;
  nn::Vector& scale = arena.scale();
  nn::Matrix& xq = arena.quantized();
  for (int k = 0; k < depth; ++k) {
    const nn::PlanLayer& layer = plan.layer(k);
    // Programming is keyed on the plan's own panel: with depth ≥ 2 the
    // bank churns through the layers exactly as the per-op path churns
    // through the model's matrices, so the billing pattern is identical.
    ensure_programmed(layer.weights);

    // Input DAC, same pass as matmul but into arena scratch.
    xq.reshape(batch, cur->cols());
    dac_quantize(cur->data(), cur->cols(), input_quantizer_, scale, xq.data());

    const bool last = (k == depth - 1);
    nn::Matrix& y = last ? arena.out() : arena.act(k);
    y.reshape(batch, layer.rows);
    // The pre-clamped panel holds the values matmul saturates to, without
    // matmul's per-call range scan.
    layer.clamped.matmul_into(xq, y);
    noise_and_rescale(y, scale);
    // Hidden-layer activation as its own whole-buffer pass, mirroring
    // forward_batch: the branch-free loop vectorizes, where folding the
    // activation into the noise/re-scale loop above measurably does not.
    if (!last) {
      for (double& v : y.data()) {
        v = nn::apply_activation(layer.activation, v);
      }
    }

    ledger_.symbols += batch;
    ledger_.macs += batch * layer.weights.size();
    ledger_.activations += batch * layer.weights.rows();
    if (telemetry::enabled()) {
      note_ledger(0, 0, batch, batch * layer.weights.size(),
                  batch * layer.weights.rows());
      metrics().matmul_calls.add(1);
      metrics().quantize_passes.add(1);
    }

    if (!last) {
      cur = &y;
    }
  }
  return true;
}

nn::Matrix PhotonicBackend::matmul_transposed(const nn::Matrix& w,
                                              const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.rows(), "transposed matmul dimension mismatch");
  const std::size_t batch = x.rows();
  // The gradient-vector pass re-encodes the bank with Wᵀ (Table II): one
  // programming event per gradient symbol pair, even though the values are
  // the same cells transposed, and the forward layout is gone after.
  ledger_.weight_writes += batch * w.size();
  ledger_.program_events += batch;
  if (telemetry::enabled()) {
    note_ledger(batch * w.size(), batch, 0, 0, 0);
  }
  resident_matrix_ = nullptr;

  nn::Vector scale(batch);
  nn::Matrix xq(batch, x.cols());
  dac_quantize(x.data(), x.cols(), input_quantizer_, scale, xq.data());

  nn::Matrix clamped;
  nn::Matrix y = saturated(w, clamped).matmul_transposed(xq);
  noise_and_rescale(y, scale);

  // Signed gradients stream as two polarity symbols.
  ledger_.symbols += 2 * batch;
  ledger_.macs += batch * w.size();
  if (telemetry::enabled()) {
    note_ledger(0, 0, 2 * batch, batch * w.size(), 0);
    metrics().matmul_transposed_calls.add(1);
    metrics().quantize_passes.add(1);
  }
  return y;
}

void PhotonicBackend::update_batch(nn::Matrix& w, const nn::Matrix& dh,
                                   const nn::Matrix& y_prev, double lr) {
  TRIDENT_REQUIRE(dh.rows() == y_prev.rows(), "update batch mismatch");
  TRIDENT_REQUIRE(dh.cols() == w.rows() && y_prev.cols() == w.cols(),
                  "update dimension mismatch");
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto dhb = dh.row(b);
    const auto yb = y_prev.row(b);
    // The outer product δh·yᵀ is computed optically (Table II, third
    // encoding): charge one symbol per row's modulation pattern.
    ledger_.symbols += w.rows();
    ledger_.macs += w.size();

    // In-situ update: the new value must land on a programmable GST level —
    // there is no float master copy in the hardware, so updates below half
    // an LSB are simply lost (the 8-vs-6-bit training cliff).
    std::uint64_t changed = 0;
    if (config_.stochastic_rounding) {
      // Stochastic rounding: round up with probability equal to the
      // fractional position between the two neighbouring levels (unbiased
      // dither).  One draw per cell, row-major, made for this sample only.
      draws_.resize(w.size());
      draw_canonical(rng_.engine(), draws_);
      changed = stochastic_round_update(w.data().data(), w.rows(), w.cols(),
                                        dhb.data(), yb.data(), lr,
                                        weight_quantizer_.step(),
                                        draws_.data());
    } else {
      changed = nearest_round_update(w.data().data(), w.rows(), w.cols(),
                                     dhb.data(), yb.data(), lr,
                                     weight_quantizer_.step());
    }
    // Only cells whose level actually moved receive a write pulse.
    ledger_.weight_writes += changed;
    if (changed > 0) {
      ledger_.program_events += 1;
      resident_matrix_ = nullptr;
    }
    if (telemetry::enabled()) {
      note_ledger(changed, changed > 0 ? 1 : 0, w.rows(), w.size(), 0);
      metrics().insitu_updates.add(1);
      metrics().quantize_passes.add(1);
    }
  }
}

}  // namespace trident::core
