// Fabrication-variation model and hardware-in-the-loop deployment study.
//
// The paper's introduction motivates unified on-hardware training with the
// observation that offline-trained weights never match the physical
// devices: "digital models used at the time of training cannot capture all
// the manufacturing imperfections and variations of the physical hardware.
// The resulting mismatch between trained and implemented weights leads to
// sub-optimal accuracy at inference time" (§I, after [9]).
//
// This module makes that claim testable:
//   * VariationBackend wraps the photonic backend with a *static*
//     per-device gain error (each MRR+GST cell realises γ·w instead of w,
//     γ ~ N(1, σ) fixed at fabrication) plus optional resonance-offset
//     loss.  The error is invisible to an offline float model but fully
//     present in every on-hardware operation — forward and backward — so
//     in-situ training naturally adapts around it.
//   * deployment_study() runs the three-step experiment: train offline in
//     float, deploy onto varied hardware (accuracy drops), fine-tune
//     in-situ (accuracy recovers).
#pragma once

#include <unordered_map>
#include <vector>

#include "core/photonic_backend.hpp"
#include "nn/dataset.hpp"
#include "nn/train.hpp"

namespace trident::core {

struct VariationConfig {
  /// Std-dev of the static multiplicative per-cell gain error.  A few
  /// percent is typical for uncompensated fabrication spread.
  double gain_sigma = 0.05;
  /// Std-dev of the static *additive* per-cell weight offset: resonance
  /// mismatch between a ring and its channel biases the realised weight
  /// even at mid-scale.  This is the damaging term for deployed models.
  double weight_offset_sigma = 0.0;
  /// Weight-independent additive offset per row (detector/TIA mismatch).
  double row_offset_sigma = 0.0;
  /// Quantization / noise configuration of the underlying hardware.
  PhotonicBackendConfig hardware;
  std::uint64_t seed = 0xFAB;
};

/// MatvecBackend with frozen fabrication variation on top of the photonic
/// quantization model.  Gains are drawn once per matrix (per device array)
/// the first time it is seen and stay fixed — they model hardware, not
/// noise.
class VariationBackend final : public nn::MatvecBackend {
 public:
  explicit VariationBackend(const VariationConfig& config = {});

  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) override;

  [[nodiscard]] const PhotonicLedger& ledger() const {
    return inner_.ledger();
  }
  [[nodiscard]] const VariationConfig& config() const { return config_; }

  /// The gain map assigned to matrix `w` (test/inspection hook; creates it
  /// if the matrix has not been seen).
  [[nodiscard]] const std::vector<double>& gains(const nn::Matrix& w);

 private:
  /// Frozen fabrication draws of one device array (one weight matrix).
  struct Device {
    std::vector<double> gains;
    std::vector<double> cell_offsets;
    std::vector<double> row_offsets;
    /// The matrix as the device realises it.  One buffer per source
    /// matrix, refilled on every call: its stable address is what the
    /// inner backend's residency check keys on, so programming is billed
    /// exactly as it would be for the source matrix itself.
    nn::Matrix effective;
  };
  /// The device array for `w`, drawn the first time the matrix is seen.
  [[nodiscard]] Device& device(const nn::Matrix& w);
  /// Refills d.effective with clamp(clamp(w)·γ + δ) and returns it.
  [[nodiscard]] const nn::Matrix& effective(Device& d, const nn::Matrix& w);

  VariationConfig config_;
  PhotonicBackend inner_;
  Rng gain_rng_;
  std::unordered_map<const void*, Device> devices_;
};

/// Result of the offline-vs-in-situ deployment experiment.
struct DeploymentStudy {
  double float_accuracy = 0.0;      ///< offline model on exact hardware
  double deployed_accuracy = 0.0;   ///< offline weights on varied hardware
  double finetuned_accuracy = 0.0;  ///< after in-situ fine-tuning epochs
  double recovered_fraction = 0.0;  ///< of the deployment gap closed
};

/// Runs the full §I-motivation experiment on a dataset:
///  1. train `epochs` epochs offline (float backend);
///  2. evaluate the same weights through a VariationBackend;
///  3. fine-tune `finetune_epochs` in-situ on that backend and re-evaluate.
[[nodiscard]] DeploymentStudy deployment_study(
    const nn::Dataset& train_set, const nn::Dataset& test_set,
    const std::vector<int>& layer_sizes, const VariationConfig& variation,
    int epochs = 40, int finetune_epochs = 10, double learning_rate = 0.05,
    std::uint64_t init_seed = 7);

}  // namespace trident::core
