// Functional multi-layer perceptron with a pluggable linear-algebra backend.
//
// The paper's training story (§III.A.2, Table II) maps three linear
// primitives onto the same PE hardware:
//
//   forward         y_k  = f(W_k · y_{k-1})        weight bank ← W_k
//   gradient vector δh_k = (W_{k+1}ᵀ · δh_{k+1}) ⊙ f'(h_k)
//                                                   weight bank ← W_{k+1}ᵀ
//   outer product   δW_k = δh_k · y_{k-1}ᵀ          weight bank ← y_{k-1}ᵀ
//
// The Mlp below expresses backprop in exactly those three primitives and
// delegates them to a MatvecBackend: the exact float backend gives the
// reference, and the photonic backend (src/core/photonic_backend) runs the
// same network through quantized, noisy, GST-programmed hardware — which is
// how the 8-bit-trains / 6-bit-doesn't ablation is carried out.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "photonics/constants.hpp"

namespace trident::nn {

/// Hidden-layer non-linearity.
enum class Activation {
  kReLU,         ///< max(0, h): used by every CNN in the evaluation
  kGstPhotonic,  ///< Trident's GST cell, linearised: 0.34·max(0, h) (§III.C)
  kIdentity,
};

// Both activation helpers are defined inline: the compiled-plan fused
// epilogues (core/*_backend run_plan) evaluate them per output element, and
// an out-of-line call there measurably dominates the B=32 forward.
[[nodiscard]] inline double apply_activation(Activation a, double h) {
  switch (a) {
    case Activation::kReLU:
      return h > 0.0 ? h : 0.0;
    case Activation::kGstPhotonic:
      return h > 0.0 ? phot::kActivationDerivativeHigh * h : 0.0;
    case Activation::kIdentity:
      return h;
  }
  // A value outside the enum (a new Activation missing its case above, or a
  // corrupted enum) must fail loudly — silently computing identity here
  // would mask the missing device model.
  TRIDENT_REQUIRE(false, "unhandled Activation in apply_activation");
}

[[nodiscard]] inline double activation_derivative(Activation a, double h) {
  switch (a) {
    case Activation::kReLU:
      return h > 0.0 ? 1.0 : 0.0;
    case Activation::kGstPhotonic:
      return h > 0.0 ? phot::kActivationDerivativeHigh
                     : phot::kActivationDerivativeLow;
    case Activation::kIdentity:
      return 1.0;
  }
  TRIDENT_REQUIRE(false, "unhandled Activation in activation_derivative");
}

class ExecutionPlan;  // nn/plan.hpp: compiled layer schedule + packed panels
class PlanArena;      // nn/plan.hpp: per-replica scratch for Plan runs

/// Linear-primitive backend.  Implementations may quantize, add noise, and
/// keep energy/latency accounts.
///
/// Every primitive is batched: rows of the batch Matrix are samples, and a
/// single sample is a one-row Matrix (see as_row).  Row b of any result is
/// what that sample alone would have produced — outputs, noise draws, and
/// ledger counters are invariant to how a stream of samples is split into
/// calls (batch-size invariance is part of every backend's contract).
///
/// Failure contract (what the serving runtime relies on): a backend that
/// hits a *transient* fault (a glitched read, a chaos-injected error)
/// throws an ordinary exception — the caller may retry the same call,
/// possibly on another replica.  A backend whose hardware is *gone*
/// throws trident::HardwareFailure instead — the owning replica must be
/// decommissioned and rebuilt, not retried.  Backends may also return
/// non-finite outputs to model silent data corruption; batch consumers
/// are expected to scrub for NaN/Inf before trusting a row.  A backend
/// instance is only ever driven from one thread at a time (each serving
/// replica owns a private instance), so implementations need no locking.
class MatvecBackend {
 public:
  virtual ~MatvecBackend() = default;
  /// Forward: x is (batch × cols); returns (batch × rows), row b = W·x_b.
  [[nodiscard]] virtual Matrix matmul(const Matrix& w, const Matrix& x) = 0;
  /// Gradient-vector pass: x is (batch × rows); returns (batch × cols),
  /// row b = Wᵀ·x_b.
  [[nodiscard]] virtual Matrix matmul_transposed(const Matrix& w,
                                                 const Matrix& x) = 0;
  /// Weight update W ← W − lr · δh_b · y_bᵀ (Eqs. 1-2), applied once per
  /// sample in batch order (in-situ hardware programs sequentially, so a
  /// quantizing backend's result depends on that order).
  virtual void update_batch(Matrix& w, const Matrix& dh, const Matrix& y_prev,
                            double lr) = 0;

  /// Fused whole-model execution of a compiled ExecutionPlan (nn/plan.hpp):
  /// runs every layer of `plan` on `x` (batch × input), leaving the output
  /// logits in `arena.out()`, with outputs, RNG draws, and ledger counters
  /// bit-identical to forward_batch through the primitives above.
  /// Returns false when this backend has no fused path for `plan` (the base
  /// default) — the caller then interprets the plan per-op instead, so
  /// decorated/custom backends keep their exact call sequence.
  virtual bool run_plan(const ExecutionPlan& plan, const Matrix& x,
                        PlanArena& arena);
};

/// Exact double-precision backend (the digital reference).
class FloatBackend final : public MatvecBackend {
 public:
  [[nodiscard]] Matrix matmul(const Matrix& w, const Matrix& x) override;
  [[nodiscard]] Matrix matmul_transposed(const Matrix& w,
                                         const Matrix& x) override;
  void update_batch(Matrix& w, const Matrix& dh, const Matrix& y_prev,
                    double lr) override;
  /// Fused plan path: per-layer matmul_into + activation into the arena,
  /// zero steady-state allocation, bit-identical to forward_batch.
  bool run_plan(const ExecutionPlan& plan, const Matrix& x,
                PlanArena& arena) override;
};

/// Activations and logits recorded during a forward pass (needed by
/// backprop, mirroring what Trident keeps in the LDSU / caches).
struct ForwardTrace {
  std::vector<Vector> activations;  ///< y_0 (input) … y_N (output logits)
  std::vector<Vector> logits;       ///< h_1 … h_N
};

/// Batched forward state: the same trace with a (batch × size_k) Matrix per
/// layer, one sample per row.
struct BatchForwardTrace {
  std::vector<Matrix> activations;  ///< y_0 (input) … y_N (output logits)
  std::vector<Matrix> logits;       ///< h_1 … h_N
  [[nodiscard]] std::size_t batch() const {
    return activations.empty() ? 0 : activations.front().rows();
  }
};

class Mlp {
 public:
  /// `layer_sizes` = {in, hidden…, out}.  Hidden layers use `hidden`
  /// activation; the output layer is linear (losses attach externally).
  Mlp(std::vector<int> layer_sizes, Activation hidden, Rng& rng);

  [[nodiscard]] int depth() const { return static_cast<int>(weights_.size()); }
  [[nodiscard]] const std::vector<int>& layer_sizes() const { return sizes_; }
  [[nodiscard]] Activation hidden_activation() const { return hidden_; }
  [[nodiscard]] const Matrix& weight(int k) const;
  [[nodiscard]] Matrix& weight(int k);

  /// Single-sample forward pass: forward_batch on a one-row batch.
  [[nodiscard]] ForwardTrace forward(const Vector& x,
                                     MatvecBackend& backend) const;

  /// Single-sample backward pass: given dL/d(output logits), computes δh_k
  /// for every layer (Eq. 3) and applies the SGD update (Eqs. 1-2) through
  /// `backend` — backward_batch on a one-row batch.
  void backward(const ForwardTrace& trace, const Vector& output_grad,
                double learning_rate, MatvecBackend& backend);

  /// Batched forward pass: x is (batch × input); whole symbol blocks stream
  /// through the backend's primitives.  Row b of every trace entry is
  /// bit-identical to forward(x.row(b)) under the same weights.
  [[nodiscard]] BatchForwardTrace forward_batch(const Matrix& x,
                                                MatvecBackend& backend) const;

  /// Batched backward pass (minibatch SGD): per layer, the gradient block
  /// propagates through the pre-update weights, then every sample's rank-1
  /// update applies in batch order.
  void backward_batch(const BatchForwardTrace& trace, const Matrix& output_grad,
                      double learning_rate, MatvecBackend& backend);

  /// Convenience inference with a private float backend.
  [[nodiscard]] Vector predict(const Vector& x) const;

 private:
  std::vector<int> sizes_;
  Activation hidden_;
  std::vector<Matrix> weights_;  ///< weights_[k]: (sizes_[k+1] × sizes_[k])
};

/// Softmax of logits (numerically stabilised).
[[nodiscard]] Vector softmax(const Vector& logits);

/// Cross-entropy loss of softmax(logits) against a class label, and its
/// gradient with respect to the logits.
struct LossGrad {
  double loss = 0.0;
  Vector grad;
};
[[nodiscard]] LossGrad softmax_cross_entropy(const Vector& logits, int label);

}  // namespace trident::nn
