// Fabrication-variation tests: the §I motivation experiment — offline
// weights degrade on varied hardware, in-situ fine-tuning recovers them.
#include "core/variation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace trident::core {
namespace {

nn::Matrix filled(std::size_t rows, std::size_t cols, double v) {
  return nn::Matrix(rows, cols, v);
}

TEST(VariationBackend, GainsAreFrozenPerMatrix) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.1;
  VariationBackend backend(cfg);
  const nn::Matrix w = filled(4, 4, 0.5);
  const std::vector<double> g1 = backend.gains(w);
  const std::vector<double> g2 = backend.gains(w);
  EXPECT_EQ(g1, g2);  // fabrication is fixed, not re-rolled
  // And actually varied.
  bool any_off = false;
  for (double g : g1) {
    if (std::abs(g - 1.0) > 1e-3) {
      any_off = true;
    }
  }
  EXPECT_TRUE(any_off);
}

TEST(VariationBackend, DistinctMatricesGetDistinctGains) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.1;
  VariationBackend backend(cfg);
  const nn::Matrix a = filled(3, 3, 0.5);
  const nn::Matrix b = filled(3, 3, 0.5);
  EXPECT_NE(backend.gains(a), backend.gains(b));
}

TEST(VariationBackend, ZeroSigmaMatchesPhotonicBackend) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.0;
  VariationBackend varied(cfg);
  PhotonicBackend plain;
  const nn::Matrix w = filled(3, 5, 0.4);
  const nn::Vector x{0.1, 0.2, 0.3, 0.4, 0.5};
  const nn::Vector a = varied.matmul(w, nn::as_row(x)).data();
  const nn::Vector b = plain.matmul(w, nn::as_row(x)).data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(VariationBackend, GainScalesForwardOutput) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.2;
  VariationBackend backend(cfg);
  nn::Matrix w(1, 1, 0.5);
  const double gain = backend.gains(w)[0];
  const nn::Vector y = backend.matmul(w, nn::as_row({1.0})).data();
  EXPECT_NEAR(y[0], 0.5 * gain, 0.01);
}

TEST(VariationBackend, BackwardSeesSameGains) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.2;
  VariationBackend backend(cfg);
  nn::Matrix w(1, 1, 0.5);
  const double gain = backend.gains(w)[0];
  const nn::Vector g = backend.matmul_transposed(w, nn::as_row({1.0})).data();
  EXPECT_NEAR(g[0], 0.5 * gain, 0.01);
}

TEST(VariationBackend, RowOffsetsShiftOutputs) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.0;
  cfg.row_offset_sigma = 0.1;
  VariationBackend backend(cfg);
  nn::Matrix w(4, 1, 0.0);  // zero weights: output is pure offset
  const nn::Vector y = backend.matmul(w, nn::as_row({1.0})).data();
  bool any_nonzero = false;
  for (double v : y) {
    if (std::abs(v) > 1e-4) {
      any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(VariationBackend, RejectsExtremeSigma) {
  VariationConfig cfg;
  cfg.gain_sigma = 0.7;
  EXPECT_THROW(VariationBackend{cfg}, Error);
}

// --- the paper-motivation experiment ----------------------------------------

nn::Dataset deployment_task() {
  // 8 binary pattern classes: separable enough that the hardware ceiling
  // is ~100%, subtle enough that per-cell weight offsets scramble the
  // class scores of an offline-trained model.
  Rng rng(31);
  nn::Dataset data = nn::pattern_classes(480, 8, 16, 0.05, rng);
  data.augment_bias();
  return data;
}

class DeploymentSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeploymentSweep, VariationDegradesOfflineWeights) {
  const double offset_sigma = GetParam();
  nn::Dataset data = deployment_task();
  const auto [train_set, test_set] = data.split(0.25);

  VariationConfig cfg;
  cfg.gain_sigma = 0.10;
  cfg.weight_offset_sigma = offset_sigma;
  cfg.row_offset_sigma = 0.05;
  const DeploymentStudy study = deployment_study(
      train_set, test_set, {17, 24, 8}, cfg, 30, 0, 0.05);
  EXPECT_GT(study.float_accuracy, 0.95);
  // With real variation the deployed accuracy drops below the float run.
  EXPECT_LT(study.deployed_accuracy, study.float_accuracy);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, DeploymentSweep,
                         ::testing::Values(0.20, 0.25));

TEST(DeploymentStudy, InSituFineTuningRecoversAccuracy) {
  // The headline §I claim: the deployment gap closes when training runs on
  // the same hardware that executes inference.
  nn::Dataset data = deployment_task();
  const auto [train_set, test_set] = data.split(0.25);

  VariationConfig cfg;
  cfg.gain_sigma = 0.10;
  cfg.weight_offset_sigma = 0.20;
  cfg.row_offset_sigma = 0.05;
  const DeploymentStudy study = deployment_study(
      train_set, test_set, {17, 24, 8}, cfg, 30, 10, 0.05);

  EXPECT_LT(study.deployed_accuracy, study.float_accuracy);
  EXPECT_GT(study.finetuned_accuracy, study.deployed_accuracy);
  EXPECT_GT(study.recovered_fraction, 0.5)
      << "fine-tuning should close most of the deployment gap";
}

TEST(DeploymentStudy, QuantizationAwareTrainingDoesNotFixVariation) {
  // A sharper version of the §I claim: training offline on the *quantized*
  // hardware model (QAT — the photonic backend, but variation-blind) still
  // loses accuracy on the varied device, because fabrication variation is
  // per-chip and unknowable offline.  Only training through the actual
  // hardware closes the gap.
  nn::Dataset data = deployment_task();
  const auto [train_set, test_set] = data.split(0.25);

  // Offline QAT: train on a clean photonic backend.
  Rng init(7);
  nn::Mlp net({17, 24, 8}, nn::Activation::kGstPhotonic, init);
  PhotonicBackend qat;
  nn::TrainConfig cfg;
  cfg.epochs = 30;
  cfg.learning_rate = 0.05;
  (void)nn::fit(net, train_set, cfg, qat);
  const double qat_clean = nn::evaluate(net, test_set, qat);

  // Deploy on several fabricated chips (variation seeds): on average the
  // QAT model loses accuracy it could not have anticipated offline.
  VariationConfig vcfg;
  vcfg.gain_sigma = 0.15;
  vcfg.weight_offset_sigma = 0.30;
  vcfg.row_offset_sigma = 0.08;
  double deployed_sum = 0.0;
  double worst_deployed = 1.0;
  std::uint64_t worst_seed = 0;
  const int chips = 5;
  for (int chip = 0; chip < chips; ++chip) {
    vcfg.seed = 0xFAB + static_cast<std::uint64_t>(chip);
    VariationBackend hardware(vcfg);
    const double acc = nn::evaluate(net, test_set, hardware);
    deployed_sum += acc;
    if (acc < worst_deployed) {
      worst_deployed = acc;
      worst_seed = vcfg.seed;
    }
  }
  const double deployed_mean = deployed_sum / chips;
  EXPECT_LT(deployed_mean, qat_clean - 0.02)
      << "QAT cannot anticipate per-chip gains";

  // In-situ fine-tuning on the worst chip recovers it.
  vcfg.seed = worst_seed;
  VariationBackend hardware(vcfg);
  nn::TrainConfig ft;
  ft.epochs = 10;
  ft.learning_rate = 0.05;
  (void)nn::fit(net, train_set, ft, hardware);
  const double finetuned = nn::evaluate(net, test_set, hardware);
  EXPECT_GT(finetuned, worst_deployed);
  EXPECT_GT(finetuned, qat_clean - 0.03);
}

TEST(DeploymentStudy, NoVariationMeansNothingToRecover) {
  Rng rng(32);
  nn::Dataset data = nn::gaussian_blobs(200, 2, 4, 4.0, 0.3, rng);
  const auto [train_set, test_set] = data.split(0.25);
  VariationConfig cfg;
  cfg.gain_sigma = 0.0;
  const DeploymentStudy study = deployment_study(
      train_set, test_set, {4, 8, 2}, cfg, 30, 5, 0.05);
  EXPECT_NEAR(study.deployed_accuracy, study.float_accuracy, 0.05);
}

}  // namespace
}  // namespace trident::core
