// Fault-injection tests: stuck PCM cells, their accuracy cost, and the
// route-around capability of in-situ retraining.
#include "core/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/variation.hpp"
#include "nn/mlp.hpp"

namespace trident::core {
namespace {

nn::Dataset task() {
  Rng rng(31);
  nn::Dataset data = nn::pattern_classes(480, 8, 16, 0.05, rng);
  data.augment_bias();
  return data;
}

TEST(FaultyBackend, ZeroRateMatchesPhotonicBackend) {
  FaultConfig cfg;
  cfg.fault_rate = 0.0;
  FaultyBackend faulty(cfg);
  PhotonicBackend plain;
  nn::Matrix w(4, 4, 0.3);
  const nn::Vector x{0.1, 0.5, 0.9, 0.2};
  const nn::Vector a = faulty.matmul(w, nn::as_row(x)).data();
  const nn::Vector b = plain.matmul(w, nn::as_row(x)).data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
  EXPECT_EQ(faulty.fault_count(w), 0u);
}

TEST(FaultyBackend, MaskIsFrozenPerMatrix) {
  FaultConfig cfg;
  cfg.fault_rate = 0.2;
  FaultyBackend backend(cfg);
  nn::Matrix w(8, 8, 0.0);
  const std::size_t n1 = backend.fault_count(w);
  const std::size_t n2 = backend.fault_count(w);
  EXPECT_EQ(n1, n2);
  EXPECT_GT(n1, 0u);
  // Roughly 20% of 64 cells.
  EXPECT_LT(n1, 30u);
}

TEST(FaultyBackend, StuckCellsDominateTheirOutputs) {
  FaultConfig cfg;
  cfg.fault_rate = 0.49;  // many faults in a small matrix
  cfg.seed = 3;
  FaultyBackend backend(cfg);
  nn::Matrix w(4, 4, 0.0);  // all-zero weights: any signal is fault-borne
  const nn::Vector y =
      backend.matmul(w, nn::as_row({1.0, 1.0, 1.0, 1.0})).data();
  double magnitude = 0.0;
  for (double v : y) {
    magnitude += std::abs(v);
  }
  EXPECT_GT(magnitude, 0.5) << "stuck cells must inject signal";
}

TEST(FaultyBackend, UpdatesToDeadCellsAreLost) {
  FaultConfig cfg;
  cfg.fault_rate = 0.3;
  cfg.seed = 5;
  FaultyBackend backend(cfg);
  nn::Matrix w(6, 6, 0.0);
  const std::size_t faults = backend.fault_count(w);
  ASSERT_GT(faults, 0u);
  // A big update everywhere...
  const nn::Matrix ones(1, 6, 1.0);
  backend.update_batch(w, ones, ones, 0.5);
  // ...but the dead cells still read their stuck values.
  const nn::Matrix before = w;
  backend.update_batch(w, ones, ones, 0.5);
  std::size_t unchanged = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w.data()[i] == before.data()[i] &&
        std::abs(w.data()[i]) == 1.0) {
      ++unchanged;
    }
  }
  EXPECT_GE(unchanged, faults);
}

TEST(FaultyBackend, BatchedMatmulBitIdenticalToFaultedMatvecLoop) {
  // Two instances with the same config draw the same frozen mask for the
  // same matrix object (the mask RNG is seeded by config, keyed by matrix
  // address), so each can exercise one path without sharing RNG state:
  // one batched matmul and a loop of one-row matmuls must agree
  // bit-for-bit at every batch size — while the batch programs the bank at
  // most as often as the loop (that amortisation is the point of batching).
  for (const std::size_t batch : {1u, 2u, 3u, 5u, 8u}) {
    FaultConfig cfg;
    cfg.fault_rate = 0.2;
    cfg.seed = 11;
    FaultyBackend override_backend(cfg);
    FaultyBackend loop_backend(cfg);

    nn::Matrix w(6, 8, 0.0);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = 0.9 - 0.02 * static_cast<double>(i);
    }
    nn::Matrix x(batch, 8, 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = -0.8 + 0.03 * static_cast<double>(i);
    }
    ASSERT_GT(override_backend.fault_count(w), 0u);

    const nn::Matrix batched = override_backend.matmul(w, x);
    ASSERT_EQ(batched.rows(), batch);
    nn::Matrix xb(1, x.cols());
    for (std::size_t b = 0; b < batch; ++b) {
      const auto xrow = x.row(b);
      std::copy(xrow.begin(), xrow.end(), xb.data().begin());
      const nn::Vector per_sample = loop_backend.matmul(w, xb).data();
      ASSERT_EQ(per_sample.size(), batched.cols());
      for (std::size_t j = 0; j < per_sample.size(); ++j) {
        EXPECT_EQ(batched.row(b)[j], per_sample[j])
            << "batch " << batch << " row " << b << " component " << j;
      }
    }
    EXPECT_LE(override_backend.ledger().program_events,
              loop_backend.ledger().program_events)
        << "the batched path must not program the bank more than the loop";
  }
}

TEST(FaultyBackend, BatchedTransposedBitIdenticalToLoop) {
  FaultConfig cfg;
  cfg.fault_rate = 0.15;
  cfg.seed = 13;
  FaultyBackend batched_backend(cfg);
  FaultyBackend loop_backend(cfg);
  nn::Matrix w(6, 8, 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = 0.7 - 0.015 * static_cast<double>(i);
  }
  nn::Matrix dh(3, 6, 0.0);
  for (std::size_t i = 0; i < dh.size(); ++i) {
    dh.data()[i] = 0.4 - 0.01 * static_cast<double>(i);
  }
  const nn::Matrix out = batched_backend.matmul_transposed(w, dh);
  nn::Matrix dhb(1, dh.cols());
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto row = dh.row(b);
    std::copy(row.begin(), row.end(), dhb.data().begin());
    const nn::Vector per_sample = loop_backend.matmul_transposed(w, dhb).data();
    ASSERT_EQ(per_sample.size(), out.cols());
    for (std::size_t j = 0; j < per_sample.size(); ++j) {
      EXPECT_EQ(out.row(b)[j], per_sample[j]) << "row " << b << " col " << j;
    }
  }
}

TEST(DecoratorBilling, ZeroFaultAndZeroSigmaLedgersMatchPhotonicBackend) {
  // A decorator hands its inner PhotonicBackend the device-realised copy of
  // each weight matrix.  With no faults and no variation that copy equals
  // the source, so the bill must equal PhotonicBackend's own for the same
  // call sequence: one program burst whenever the bank switches layers,
  // however many times the copy is refilled.
  FaultConfig no_faults;
  no_faults.fault_rate = 0.0;
  VariationConfig no_variation;
  no_variation.gain_sigma = 0.0;
  PhotonicBackend plain;
  FaultyBackend faulty(no_faults);
  VariationBackend varied(no_variation);

  Rng init(5);
  const nn::Mlp model({8, 12, 6, 4}, nn::Activation::kReLU, init);
  nn::Matrix x(3, 8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = 0.9 - 0.04 * static_cast<double>(i);
  }
  const nn::Vector sample(x.row(0).begin(), x.row(0).end());
  nn::Matrix grad(3, 4);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = 0.3 - 0.05 * static_cast<double>(i);
  }
  auto drive = [&](nn::MatvecBackend& backend) {
    nn::Mlp net = model;
    for (int i = 0; i < 3; ++i) {
      (void)net.forward_batch(x, backend);
      (void)net.forward(sample, backend);
    }
    const nn::BatchForwardTrace trace = net.forward_batch(x, backend);
    net.backward_batch(trace, grad, 0.05, backend);
    (void)net.forward_batch(x, backend);
  };
  drive(plain);
  drive(faulty);
  drive(varied);
  EXPECT_GE(plain.ledger().program_events, 18u);
  EXPECT_EQ(faulty.ledger(), plain.ledger());
  EXPECT_EQ(varied.ledger(), plain.ledger());
}

TEST(FaultyBackend, RejectsBadConfig) {
  FaultConfig bad;
  bad.fault_rate = 0.6;
  EXPECT_THROW(FaultyBackend{bad}, Error);
  bad = {};
  bad.stuck_value = 2.0;
  EXPECT_THROW(FaultyBackend{bad}, Error);
}

TEST(FaultStudy, FaultsDegradeAndRetrainingRecovers) {
  // The reliability claim: a few percent of dead cells costs a deployed
  // model accuracy; in-situ retraining on the SAME faulty hardware routes
  // around them (the healthy cells compensate).
  nn::Dataset data = task();
  const auto [train_set, test_set] = data.split(0.25);
  FaultConfig cfg;
  cfg.fault_rate = 0.05;
  const FaultStudy s =
      fault_study(train_set, test_set, {17, 24, 8}, cfg, 30, 10, 0.05);
  EXPECT_GT(s.clean_accuracy, 0.95);
  EXPECT_LT(s.faulty_accuracy, s.clean_accuracy);
  EXPECT_GT(s.retrained_accuracy, s.faulty_accuracy);
  EXPECT_GT(s.retrained_accuracy, s.clean_accuracy - 0.05);
}

TEST(FaultStudy, MoreFaultsHurtMore) {
  nn::Dataset data = task();
  const auto [train_set, test_set] = data.split(0.25);
  FaultConfig mild, severe;
  mild.fault_rate = 0.01;
  severe.fault_rate = 0.20;
  const FaultStudy a =
      fault_study(train_set, test_set, {17, 24, 8}, mild, 30, 0, 0.05);
  const FaultStudy b =
      fault_study(train_set, test_set, {17, 24, 8}, severe, 30, 0, 0.05);
  EXPECT_GE(a.faulty_accuracy, b.faulty_accuracy);
}

}  // namespace
}  // namespace trident::core
