// Quantized int8 inference tier (the "fast" serving path).
//
// The photonic functional model quantizes every weight and input anyway —
// GST cells hold one of 255 levels, the modulator DAC is 8-bit — so a
// noise-free forward pass never needs double-precision device math: the
// whole computation collapses to integer level arithmetic plus one scale
// multiply per output.  QuantizedBackend ships that observation as a
// drop-in nn::MatvecBackend with two entry points:
//
//   * run_plan — the served path: ExecutionPlan::run streams the plan's
//     immutable pre-packed int8 panels through the blocked multi-ISA int8
//     GEMM kernels (src/nn/int8_gemm) with exact int32 accumulation,
//     dequantizing to double at every layer boundary.
//   * matmul & co — the per-op path training and decorated backends (chaos
//     injection) drive.  Each call re-packs the weight matrix into int8
//     levels in a reused buffer: one O(rows·cols) pass, no cache to go
//     stale when hot-swap or in-situ updates rewrite the matrix in place.
//
// Ledger accounting mirrors PhotonicBackend call for call — level reads,
// program events, symbol counts — so energy books and the chaos
// conservation invariants keep holding.
//
// Error-bound contract: for a model whose weights lie in [-1, 1], every
// served logit differs from the FloatBackend reference by at most
// plan_error_bound — a closed-form function of the quantizer step sizes,
// layer fan-ins, weight norms, and activation Lipschitz constants.  The
// zoo equivalence tests assert exactly this, plus top-1 stability.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/quantize.hpp"
#include "core/photonic_backend.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::core {

struct QuantizedBackendConfig {
  int weight_bits = 8;  ///< GST level grid (must be ≤ 8 to pack into int8)
  int input_bits = 8;   ///< modulator DAC grid (must be ≤ 8)
};

/// int8 SIMD inference backend.  Deterministic (no noise model): it computes
/// exactly what a noise-free PhotonicBackend computes, up to one extra weight
/// quantization — see matmul_error_bound.  Like PhotonicBackend, an instance
/// is driven from a single thread (each serving replica owns one).
class QuantizedBackend final : public nn::MatvecBackend {
 public:
  explicit QuantizedBackend(const QuantizedBackendConfig& config = {});

  /// Forward through the blocked int8 GEMM.  The int32 accumulation is
  /// exact (no rounding, no order sensitivity) and the per-sample scale
  /// multiplies identically, so row b does not depend on the batch it
  /// rode in.
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  /// In-situ SGD step per sample on the weight grid — same deterministic
  /// semantics as a noise-free PhotonicBackend (sub-LSB updates are lost).
  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) override;

  /// Fused plan execution: streams the plan's pre-packed int8 panels
  /// through int8_gemm with arena-resident scratch — no per-call re-pack
  /// (plan immutability makes the panels safe to reuse) and zero
  /// steady-state heap allocation.  Only taken when the plan's weight grid
  /// matches this backend's (otherwise the per-op interpreter runs, which
  /// re-packs at the right grid through matmul); outputs and ledger
  /// counters are bit-identical to Mlp::forward_batch through matmul either
  /// way.
  bool run_plan(const nn::ExecutionPlan& plan, const nn::Matrix& x,
                nn::PlanArena& arena) override;

  [[nodiscard]] const PhotonicLedger& ledger() const { return ledger_; }
  [[nodiscard]] const QuantizedBackendConfig& config() const {
    return config_;
  }
  [[nodiscard]] double weight_lsb() const { return weight_quantizer_.step(); }

  /// Closed-form bound on |fast − reference| for one output element of a
  /// matmul against a weight matrix with `cols` fan-in and entries in
  /// [-1, 1], where the per-sample DAC scale was `x_scale`:
  ///
  ///   x_scale · cols · (w_step/2 + x_step/2 + w_step·x_step/4 + 4·cols·ε)
  ///
  /// The first two terms are the quantizer rounding of weights and inputs,
  /// the third their cross term, the last the float accumulation slop of
  /// the double-precision reference (the int32 path is exact).  Also valid
  /// against a noise-free PhotonicBackend (which shares the input grid, so
  /// its distance is smaller).
  [[nodiscard]] double matmul_error_bound(std::size_t cols,
                                          double x_scale) const;

  /// Closed-form bound on |served − reference| for every output logit of
  /// one sample run through ExecutionPlan::run on this backend, against
  /// the FloatBackend forward of the model the plan was compiled from.
  /// `max_abs_x` is max|x| over the sample; weights must lie in [-1, 1].
  /// Layer k has fan-in cols_k, max row ℓ1 norm ‖W_k‖∞ (PlanLayer::
  /// norm_inf) and activation Lipschitz constant L_k; with m_0 = max|x|,
  /// e_0 = 0:
  ///
  ///   s_k = max(1, m_{k-1} + e_{k-1})        DAC scale ceiling
  ///   e_k = L_k·(matmul_error_bound(cols_k, s_k) + ‖W_k‖∞·e_{k-1})
  ///   m_k = L_k·‖W_k‖∞·m_{k-1}               reference activation ceiling
  ///
  /// and the bound is e_depth: each layer adds its own quantization error
  /// and passes the incoming error through the weights and activation.
  [[nodiscard]] double plan_error_bound(const nn::ExecutionPlan& plan,
                                        double max_abs_x) const;

  // --- snapshot/serving hooks (parity with PhotonicBackend) ---------------
  void restore_ledger(const PhotonicLedger& ledger) { ledger_ = ledger; }
  void mark_resident(const nn::Matrix& w) {
    resident_matrix_ = static_cast<const void*>(&w);
  }
  [[nodiscard]] bool is_resident(const nn::Matrix& w) const {
    return resident_matrix_ == static_cast<const void*>(&w);
  }

 private:
  /// TIA re-scale of exact int32 accumulators into y (already shaped):
  /// y(b, j) = acc[b·cols + j] · w_step · x_step · scale[b].
  void rescale(const std::int32_t* acc, std::span<const double> scale,
               nn::Matrix& y) const;
  void ensure_programmed(const nn::Matrix& w);

  QuantizedBackendConfig config_;
  SymmetricQuantizer weight_quantizer_;
  SymmetricQuantizer input_quantizer_;
  PhotonicLedger ledger_;
  /// Per-op int8 re-pack of the weights (reused across calls).
  std::vector<std::int8_t> weight_levels_;
  const void* resident_matrix_ = nullptr;
};

}  // namespace trident::core
