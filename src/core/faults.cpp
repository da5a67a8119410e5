#include "core/faults.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace trident::core {

FaultyBackend::FaultyBackend(const FaultConfig& config)
    : config_(config), inner_(config.hardware), fault_rng_(config.seed) {
  TRIDENT_REQUIRE(config.fault_rate >= 0.0 && config.fault_rate < 0.5,
                  "fault rate must be in [0, 0.5)");
  TRIDENT_REQUIRE(config.stuck_value >= -1.0 && config.stuck_value <= 1.0,
                  "stuck value must lie in the weight range");
}

FaultyBackend::Mask& FaultyBackend::mask_for(const nn::Matrix& w) {
  const void* key = static_cast<const void*>(&w);
  auto it = masks_.find(key);
  if (it == masks_.end()) {
    Mask mask;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (fault_rng_.bernoulli(config_.fault_rate)) {
        mask.positions.push_back(i);
        // Alternate stuck-SET / stuck-RESET.
        const bool stuck_set = fault_rng_.bernoulli(0.5);
        mask.stuck.push_back(stuck_set ? config_.stuck_value
                                       : -config_.stuck_value);
      }
    }
    it = masks_.emplace(key, std::move(mask)).first;
  }
  return it->second;
}

const nn::Matrix& FaultyBackend::effective(const nn::Matrix& w) {
  Mask& mask = mask_for(w);
  mask.effective = w;
  for (std::size_t i = 0; i < mask.positions.size(); ++i) {
    mask.effective.data()[mask.positions[i]] = mask.stuck[i];
  }
  return mask.effective;
}

std::size_t FaultyBackend::fault_count(const nn::Matrix& w) {
  return mask_for(w).positions.size();
}

nn::Matrix FaultyBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  return inner_.matmul(effective(w), x);
}

nn::Matrix FaultyBackend::matmul_transposed(const nn::Matrix& w,
                                            const nn::Matrix& x) {
  return inner_.matmul_transposed(effective(w), x);
}

void FaultyBackend::update_batch(nn::Matrix& w, const nn::Matrix& dh,
                                 const nn::Matrix& y_prev, double lr) {
  TRIDENT_REQUIRE(dh.rows() == y_prev.rows(), "update batch mismatch");
  const Mask& mask = mask_for(w);
  nn::Matrix dhb(1, dh.cols());
  nn::Matrix yb(1, y_prev.cols());
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto dr = dh.row(b);
    const auto yr = y_prev.row(b);
    std::copy(dr.begin(), dr.end(), dhb.data().begin());
    std::copy(yr.begin(), yr.end(), yb.data().begin());
    inner_.update_batch(w, dhb, yb, lr);
    // Writes to dead cells are lost: the stored value snaps back after
    // every sample, so the next sample's update (and its write count) sees
    // the stuck value, as the device would.
    for (std::size_t i = 0; i < mask.positions.size(); ++i) {
      w.data()[mask.positions[i]] = mask.stuck[i];
    }
  }
}

FaultStudy fault_study(const nn::Dataset& train_set,
                       const nn::Dataset& test_set,
                       const std::vector<int>& layer_sizes,
                       const FaultConfig& faults, int epochs,
                       int finetune_epochs, double learning_rate,
                       std::uint64_t init_seed) {
  TRIDENT_REQUIRE(epochs >= 1 && finetune_epochs >= 0,
                  "epoch counts must be sensible");
  Rng init(init_seed);
  nn::Mlp net(layer_sizes, nn::Activation::kGstPhotonic, init);

  nn::FloatBackend clean;
  nn::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.learning_rate = learning_rate;
  (void)nn::fit(net, train_set, cfg, clean);

  FaultStudy study;
  study.clean_accuracy = nn::evaluate(net, test_set, clean);

  FaultyBackend hardware(faults);
  study.faulty_accuracy = nn::evaluate(net, test_set, hardware);

  if (finetune_epochs > 0) {
    nn::TrainConfig ft;
    ft.epochs = finetune_epochs;
    ft.learning_rate = learning_rate;
    (void)nn::fit(net, train_set, ft, hardware);
  }
  study.retrained_accuracy = nn::evaluate(net, test_set, hardware);
  return study;
}

}  // namespace trident::core
