// Hard-fault injection for reliability studies.
//
// PCM cells fail in two characteristic ways: stuck-SET (the cell no longer
// crystallises — reads as a large weight) and stuck-RESET (no longer
// amorphises — small weight).  A deployed accelerator accumulates such
// faults over its lifetime (the endurance analysis says how fast); the
// questions that matter are (a) how much accuracy a given fault density
// costs, and (b) whether in-situ training can *route around* dead cells —
// something an offline-trained deployment cannot do.
//
// FaultyBackend wraps the photonic backend with a frozen per-matrix fault
// mask: faulty positions read a stuck value on every forward/backward
// access, and rank-1 updates to them are silently lost (the device no
// longer switches).
#pragma once

#include <unordered_map>
#include <vector>

#include "core/photonic_backend.hpp"
#include "nn/dataset.hpp"
#include "nn/train.hpp"

namespace trident::core {

struct FaultConfig {
  /// Fraction of cells that are stuck (split evenly SET/RESET).
  double fault_rate = 0.01;
  /// Stuck-SET cells read this weight; stuck-RESET cells read its negative.
  double stuck_value = 1.0;
  PhotonicBackendConfig hardware;
  std::uint64_t seed = 0xDEAD;
};

class FaultyBackend final : public nn::MatvecBackend {
 public:
  explicit FaultyBackend(const FaultConfig& config = {});

  /// Forward on faulty hardware: imposes the stuck-cell mask once per
  /// call and hands the effective matrix to the photonic GEMM path.
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  /// Gradient-vector pass through the same stuck cells.
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  /// Per-sample in-situ updates; writes to stuck cells are lost.
  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) override;

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] const PhotonicLedger& ledger() const {
    return inner_.ledger();
  }

  /// Number of stuck cells assigned to `w` (assigns the mask on first use).
  [[nodiscard]] std::size_t fault_count(const nn::Matrix& w);

 private:
  struct Mask {
    std::vector<std::size_t> positions;
    std::vector<double> stuck;
    /// The matrix as the device realises it.  One buffer per source
    /// matrix, refilled on every call: its stable address is what the
    /// inner backend's residency check keys on, so programming is billed
    /// exactly as it would be for the source matrix itself.
    nn::Matrix effective;
  };
  [[nodiscard]] Mask& mask_for(const nn::Matrix& w);
  /// `w` with the stuck values imposed, in its mask's effective buffer.
  [[nodiscard]] const nn::Matrix& effective(const nn::Matrix& w);

  FaultConfig config_;
  PhotonicBackend inner_;
  Rng fault_rng_;
  std::unordered_map<const void*, Mask> masks_;
};

/// The reliability experiment: train offline (clean float), deploy on
/// faulty hardware, then fine-tune in-situ on the same faulty hardware.
struct FaultStudy {
  double clean_accuracy = 0.0;
  double faulty_accuracy = 0.0;
  double retrained_accuracy = 0.0;
};

[[nodiscard]] FaultStudy fault_study(const nn::Dataset& train_set,
                                     const nn::Dataset& test_set,
                                     const std::vector<int>& layer_sizes,
                                     const FaultConfig& faults,
                                     int epochs = 30, int finetune_epochs = 10,
                                     double learning_rate = 0.05,
                                     std::uint64_t init_seed = 7);

}  // namespace trident::core
