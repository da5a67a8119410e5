#include "core/variation.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace trident::core {

VariationBackend::VariationBackend(const VariationConfig& config)
    : config_(config), inner_(config.hardware), gain_rng_(config.seed) {
  TRIDENT_REQUIRE(config.gain_sigma >= 0.0 && config.gain_sigma < 0.5,
                  "gain sigma must be in [0, 0.5)");
  TRIDENT_REQUIRE(config.row_offset_sigma >= 0.0,
                  "row offset sigma must be non-negative");
  TRIDENT_REQUIRE(config.weight_offset_sigma >= 0.0 &&
                      config.weight_offset_sigma < 0.5,
                  "weight offset sigma must be in [0, 0.5)");
}

VariationBackend::Device& VariationBackend::device(const nn::Matrix& w) {
  const void* key = static_cast<const void*>(&w);
  auto it = devices_.find(key);
  if (it == devices_.end()) {
    Device d;
    d.gains.resize(w.size());
    for (double& v : d.gains) {
      v = std::max(0.1, gain_rng_.normal(1.0, config_.gain_sigma));
    }
    d.cell_offsets.resize(w.size());
    for (double& v : d.cell_offsets) {
      v = gain_rng_.normal(0.0, config_.weight_offset_sigma);
    }
    d.row_offsets.resize(w.rows());
    for (double& v : d.row_offsets) {
      v = gain_rng_.normal(0.0, config_.row_offset_sigma);
    }
    it = devices_.emplace(key, std::move(d)).first;
  }
  return it->second;
}

const std::vector<double>& VariationBackend::gains(const nn::Matrix& w) {
  return device(w).gains;
}

const nn::Matrix& VariationBackend::effective(Device& d, const nn::Matrix& w) {
  d.effective.reshape(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.size(); ++i) {
    d.effective.data()[i] = std::clamp(
        std::clamp(w.data()[i], -1.0, 1.0) * d.gains[i] + d.cell_offsets[i],
        -1.0, 1.0);
  }
  return d.effective;
}

nn::Matrix VariationBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  Device& d = device(w);
  nn::Matrix y = inner_.matmul(effective(d, w), x);
  for (std::size_t b = 0; b < y.rows(); ++b) {
    auto yr = y.row(b);
    for (std::size_t r = 0; r < yr.size(); ++r) {
      yr[r] += d.row_offsets[r];
    }
  }
  return y;
}

nn::Matrix VariationBackend::matmul_transposed(const nn::Matrix& w,
                                               const nn::Matrix& x) {
  // The backward pass runs through the same physical cells, so it sees the
  // same gains — this is exactly why in-situ gradients compensate
  // variation while offline gradients cannot.
  return inner_.matmul_transposed(effective(device(w), w), x);
}

void VariationBackend::update_batch(nn::Matrix& w, const nn::Matrix& dh,
                                    const nn::Matrix& y_prev, double lr) {
  // The *stored* levels are updated; their effect on the optics is still
  // filtered through the per-cell gains on the next read.
  inner_.update_batch(w, dh, y_prev, lr);
}

DeploymentStudy deployment_study(const nn::Dataset& train_set,
                                 const nn::Dataset& test_set,
                                 const std::vector<int>& layer_sizes,
                                 const VariationConfig& variation, int epochs,
                                 int finetune_epochs, double learning_rate,
                                 std::uint64_t init_seed) {
  TRIDENT_REQUIRE(epochs >= 1 && finetune_epochs >= 0,
                  "epoch counts must be sensible");

  // 1. Offline training in float — the "digital model" of §I.
  Rng init(init_seed);
  nn::Mlp net(layer_sizes, nn::Activation::kGstPhotonic, init);
  nn::FloatBackend float_backend;
  nn::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.learning_rate = learning_rate;
  (void)nn::fit(net, train_set, cfg, float_backend);

  DeploymentStudy study;
  study.float_accuracy = nn::evaluate(net, test_set, float_backend);

  // 2. Deploy the trained weights onto varied hardware.
  VariationBackend hardware(variation);
  study.deployed_accuracy = nn::evaluate(net, test_set, hardware);

  // 3. In-situ fine-tuning on the same hardware (same gains).
  if (finetune_epochs > 0) {
    nn::TrainConfig ft;
    ft.epochs = finetune_epochs;
    ft.learning_rate = learning_rate;
    (void)nn::fit(net, train_set, ft, hardware);
  }
  study.finetuned_accuracy = nn::evaluate(net, test_set, hardware);

  const double gap = study.float_accuracy - study.deployed_accuracy;
  study.recovered_fraction =
      gap > 1e-9
          ? (study.finetuned_accuracy - study.deployed_accuracy) / gap
          : 1.0;
  return study;
}

}  // namespace trident::core
