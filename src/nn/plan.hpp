// Plan-compiled execution runtime: compile an Mlp once, run it many times.
//
// The paper's dataflow is weight-stationary — GST cells hold the weights in
// place and activations stream through — so the natural serving shape is
// compile-once/run-many: everything derivable from the weights alone is
// hoisted out of the request path into an immutable ExecutionPlan:
//
//   * the ordered layer schedule with the fused activation epilogue per
//     layer (hidden activation for k < depth-1, identity for the output —
//     the LDSU firing pattern);
//   * pre-packed weight panels: the double panel (the exact tier), the
//     [-1, 1]-saturated panel the photonic tier multiplies with (per-op
//     matmul re-clamps a fresh copy per call), and the int8 level panel
//     the quantized tier streams through int8_gemm (per-op matmul re-packs
//     the weight buffer on every call);
//   * arena extents, so a PlanArena sized once at adoption serves every
//     later batch with zero steady-state heap allocation.
//
// Plans are immutable after construction and carry a process-wide monotone
// id, so concurrent replicas share one plan by shared_ptr and hot-swap is
// "publish a new plan", never "mutate the old one".  Execution dispatches
// to MatvecBackend::run_plan; backends without a fused path fall back to a
// per-op interpretation that issues exactly one matmul per layer — the
// same op sequence as Mlp::forward_batch, so decorated backends (chaos
// fault injection, counting shims) observe identical calls.
//
// Bit-identity contract (docs/performance.md): for a given backend and
// input block, Plan::run produces the same output bits, the same RNG draw
// sequence, and the same ledger counters as Mlp::forward_batch through the
// per-op path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::nn {

struct PlanConfig {
  /// Grid of the packed int8 level panel (must be 1..8).  The quantized
  /// tier only takes its fused path when this matches its own weight grid;
  /// otherwise it interprets the plan per-op (still bit-exact).
  int weight_bits = 8;
};

/// One compiled layer: the schedule entry plus every pre-packed panel.
struct PlanLayer {
  Matrix weights;                   ///< exact double panel (rows × cols)
  Matrix clamped;                   ///< weights saturated to [-1, 1]
  std::vector<std::int8_t> levels;  ///< int8 level panel on the weight grid
  Activation activation = Activation::kIdentity;  ///< fused epilogue
  std::size_t rows = 0;
  std::size_t cols = 0;
  double norm_inf = 0.0;  ///< ‖clamped‖∞: max row ℓ1 norm (error bounds)
};

class ExecutionPlan;

/// Per-replica scratch for plan runs.  All buffers are grow-only (Matrix
/// re-shapes inside the high-water mark never reallocate), so after the
/// first batch at the largest (model, batch) extent every later run
/// performs zero heap allocations.  One arena serves one backend at a
/// time — like backends themselves, arenas are single-threaded.
class PlanArena {
 public:
  PlanArena() = default;

  /// Grows every buffer to cover `plan` at `batch` samples.  No-op when the
  /// high-water extents already cover the request (the steady state).
  void ensure(const ExecutionPlan& plan, std::size_t batch);

  /// Output logits of the last run (batch × output_dim).
  [[nodiscard]] Matrix& out() { return out_; }
  [[nodiscard]] const Matrix& out() const { return out_; }

  /// Activation ping-pong buffer for layer `k` (parity-indexed so layer
  /// k's output never aliases layer k-1's input).
  [[nodiscard]] Matrix& act(int k) { return (k & 1) != 0 ? act_b_ : act_a_; }
  /// Quantized-input block (photonic tier DAC output).
  [[nodiscard]] Matrix& quantized() { return quantized_; }
  /// Per-sample DAC scales.
  [[nodiscard]] Vector& scale() { return scale_; }
  /// int8 input levels (batch × max_width).
  [[nodiscard]] std::vector<std::int8_t>& int8_input() { return int8_; }
  /// int32 GEMM accumulators (batch × max_width).
  [[nodiscard]] std::vector<std::int32_t>& int32_acc() { return acc_; }

 private:
  std::size_t batch_hw_ = 0;  ///< high-water batch extent
  std::size_t width_hw_ = 0;  ///< high-water layer width extent
  Matrix out_;
  Matrix act_a_;
  Matrix act_b_;
  Matrix quantized_;
  Vector scale_;
  std::vector<std::int8_t> int8_;
  std::vector<std::int32_t> acc_;
};

/// Immutable compiled form of one Mlp.  Compile once (off the request
/// path), share by shared_ptr, run concurrently from any number of
/// replicas — each with its own backend and arena.
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const Mlp& model, const PlanConfig& config = {});

  /// Compile to the sharing-friendly form serving/fleet pass around.
  [[nodiscard]] static std::shared_ptr<const ExecutionPlan> compile(
      const Mlp& model, const PlanConfig& config = {});

  /// Process-wide monotone plan id: every compiled plan gets a fresh one,
  /// so "same id" means "same immutable panels" (canary promotion reuses
  /// the candidate's plan — same id — instead of re-deriving it).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const PlanConfig& config() const { return config_; }

  [[nodiscard]] int depth() const { return static_cast<int>(layers_.size()); }
  [[nodiscard]] const std::vector<int>& layer_sizes() const { return sizes_; }
  [[nodiscard]] Activation hidden_activation() const { return hidden_; }
  [[nodiscard]] const PlanLayer& layer(int k) const;
  [[nodiscard]] std::size_t input_dim() const {
    return static_cast<std::size_t>(sizes_.front());
  }
  [[nodiscard]] std::size_t output_dim() const {
    return static_cast<std::size_t>(sizes_.back());
  }
  /// Widest layer boundary (including the input) — the arena row extent.
  [[nodiscard]] std::size_t max_width() const { return max_width_; }

  /// Architecture check: true when `model` has the layer sizes and hidden
  /// activation this plan was compiled from.  (Weight VALUES are not
  /// compared — the caller owns the "this plan came from this model"
  /// pairing, which is what the versioned publish path guarantees.)
  [[nodiscard]] bool matches(const Mlp& model) const;

  /// Runs the whole model on `x` (batch × input_dim) through `backend`,
  /// returning the logits block living in `arena.out()`.  Dispatches to
  /// the backend's fused run_plan; backends without one are interpreted
  /// per-op (one matmul per layer, the Mlp::forward_batch op sequence).
  /// Outputs, RNG draws, and ledger counters are bit-identical to
  /// Mlp::forward_batch on the same backend either way.
  const Matrix& run(MatvecBackend& backend, const Matrix& x,
                    PlanArena& arena) const;

 private:
  void run_interpreted(MatvecBackend& backend, const Matrix& x,
                       PlanArena& arena) const;

  std::uint64_t id_ = 0;
  PlanConfig config_;
  std::vector<int> sizes_;
  Activation hidden_ = Activation::kIdentity;
  std::vector<PlanLayer> layers_;
  std::size_t max_width_ = 0;
};

}  // namespace trident::nn
