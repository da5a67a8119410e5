// Photonic MatvecBackend tests: quantized linear algebra, in-situ update
// semantics (the resolution cliff), and the energy/time ledger.
#include "core/photonic_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "core/stochastic_update.hpp"

namespace trident::core {
namespace {

nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = rng.uniform(-scale, scale);
    }
  }
  return m;
}

TEST(PhotonicBackend, MatvecCloseToFloatWithinQuantization) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(8, 16, 1);
  nn::Vector x(16);
  Rng rng(2);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const nn::Vector y = backend.matmul(w, nn::as_row(x)).data();
  const nn::Vector ref = w.matvec(x);
  // Error bound: input quantization only (weights already in range get
  // clamped, not re-quantized): per-term ≤ input LSB/2, summed over fan-in.
  const double bound = 16.0 * (1.0 / 254.0) + 1e-9;
  for (std::size_t r = 0; r < y.size(); ++r) {
    EXPECT_NEAR(y[r], ref[r], bound);
  }
}

TEST(PhotonicBackend, MatvecTransposedCloseToFloat) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(6, 9, 3);
  nn::Vector x(6);
  Rng rng(4);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const nn::Vector y = backend.matmul_transposed(w, nn::as_row(x)).data();
  const nn::Vector ref = w.matvec_transposed(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 6.0 * (1.0 / 254.0) + 1e-9);
  }
}

TEST(PhotonicBackend, InputScalingHandlesLargeMagnitudes) {
  // Logit-scale inputs (|x| > 1) must survive the DAC range scaling.
  PhotonicBackend backend;
  nn::Matrix w(1, 2);
  w.at(0, 0) = 0.5;
  w.at(0, 1) = -0.5;
  const nn::Vector y = backend.matmul(w, nn::as_row({4.0, 2.0})).data();
  EXPECT_NEAR(y[0], 1.0, 0.05);
}

TEST(PhotonicBackend, WeightsOutsideRangeSaturate) {
  PhotonicBackend backend;
  nn::Matrix w(1, 1);
  w.at(0, 0) = 3.0;  // beyond the add-drop [-1, 1] range
  const nn::Vector y = backend.matmul(w, nn::as_row({1.0})).data();
  EXPECT_NEAR(y[0], 1.0, 1e-6);
}

TEST(PhotonicBackend, RankOneUpdateMatchesFloatAboveLsb) {
  PhotonicBackendConfig cfg;
  cfg.weight_bits = 8;
  PhotonicBackend backend(cfg);
  nn::Matrix w(2, 2, 0.0);
  // Large update: quantization error is second-order.
  backend.update_batch(w, nn::as_row({0.5, -0.5}), nn::as_row({0.8, 0.4}),
                       1.0);
  EXPECT_NEAR(w.at(0, 0), -0.4, 1.0 / 127.0);
  EXPECT_NEAR(w.at(0, 1), -0.2, 1.0 / 127.0);
  EXPECT_NEAR(w.at(1, 0), 0.4, 1.0 / 127.0);
  EXPECT_NEAR(w.at(1, 1), 0.2, 1.0 / 127.0);
}

TEST(PhotonicBackend, UpdatesBelowHalfLsbAreLost) {
  // The §II.B/[34] training cliff: stored weights live on the GST grid, so
  // an update below half an LSB leaves every level unchanged.
  // Snap the initial weight onto each grid first — stored weights always
  // live on programmable levels.
  PhotonicBackendConfig cfg6;
  cfg6.weight_bits = 6;
  PhotonicBackend b6(cfg6);
  nn::Matrix w(1, 1);
  w.at(0, 0) = SymmetricQuantizer(6).quantize(0.5);
  const double before = w.at(0, 0);
  // Δ = 0.005 < LSB6/2 = 0.016
  b6.update_batch(w, nn::as_row({0.01}), nn::as_row({0.5}), 1.0);
  EXPECT_DOUBLE_EQ(w.at(0, 0), before);

  PhotonicBackendConfig cfg8;
  cfg8.weight_bits = 8;
  PhotonicBackend b8(cfg8);
  nn::Matrix w8(1, 1);
  w8.at(0, 0) = SymmetricQuantizer(8).quantize(0.5);
  const double before8 = w8.at(0, 0);
  // Δ = 0.005 > LSB8/2 = 0.0039
  b8.update_batch(w8, nn::as_row({0.01}), nn::as_row({0.5}), 1.0);
  EXPECT_NE(w8.at(0, 0), before8);
}

TEST(PhotonicBackend, StochasticRoundingIsUnbiasedOnAverage) {
  PhotonicBackendConfig cfg;
  cfg.weight_bits = 6;
  cfg.stochastic_rounding = true;
  PhotonicBackend backend(cfg);
  // Apply a sub-LSB update many times: stochastic rounding lets the mean
  // drift by the accumulated amount instead of freezing.
  double sum = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    nn::Matrix w(1, 1);
    w.at(0, 0) = 0.5;
    backend.update_batch(w, nn::as_row({0.01}), nn::as_row({0.5}), 1.0);
    sum += w.at(0, 0);
  }
  const double mean_after = sum / trials;
  EXPECT_NEAR(mean_after, 0.5 - 0.005, 0.004);
}

TEST(PhotonicBackend, LedgerCountsProgrammingOncePerResidentMatrix) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 5);
  nn::Vector x{0.1, 0.2, 0.3, 0.4};
  (void)backend.matmul(w, nn::as_row(x));
  const auto writes_first = backend.ledger().weight_writes;
  EXPECT_EQ(writes_first, 16u);
  (void)backend.matmul(w, nn::as_row(x));  // resident: no rewrites
  EXPECT_EQ(backend.ledger().weight_writes, writes_first);
  const nn::Matrix w2 = random_matrix(4, 4, 6);
  (void)backend.matmul(w2, nn::as_row(x));  // different matrix: re-programs
  EXPECT_EQ(backend.ledger().weight_writes, writes_first + 16u);
}

TEST(PhotonicBackend, TransposedPassForcesReprogram) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 7);
  nn::Vector x{0.1, 0.2, 0.3, 0.4};
  (void)backend.matmul(w, nn::as_row(x));
  const auto writes = backend.ledger().weight_writes;
  (void)backend.matmul_transposed(w, nn::as_row(x));  // bank re-encoded: Wᵀ
  EXPECT_EQ(backend.ledger().weight_writes, writes + 16u);
  (void)backend.matmul(w, nn::as_row(x));  // and again for the forward layout
  EXPECT_EQ(backend.ledger().weight_writes, writes + 32u);
}

TEST(PhotonicBackend, LedgerEnergyAndTimePositive) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 8);
  (void)backend.matmul(w, nn::as_row({0.1, 0.2, 0.3, 0.4}));
  const PhotonicLedger& ledger = backend.ledger();
  EXPECT_GT(ledger.energy().J(), 0.0);
  EXPECT_GT(ledger.time().s(), 0.0);
  EXPECT_EQ(ledger.macs, 16u);
  EXPECT_EQ(ledger.symbols, 1u);
  EXPECT_EQ(ledger.program_events, 1u);
  // Programming dominates: 16 × 660 pJ vs sub-pJ everything else.
  EXPECT_GT(ledger.energy().nJ(), 10.0);
  EXPECT_LT(ledger.energy().nJ(), 12.0);
}

TEST(PhotonicBackend, UpdateLedgerCountsOnlyChangedCells) {
  PhotonicBackend backend;
  nn::Matrix w(2, 2, SymmetricQuantizer(8).quantize(0.5));
  // Zero learning rate: nothing changes, no write pulses.
  const nn::Matrix ones(1, 2, 1.0);
  backend.update_batch(w, ones, ones, 0.0);
  EXPECT_EQ(backend.ledger().weight_writes, 0u);
  const nn::Matrix first = nn::as_row({1.0, 0.0});
  backend.update_batch(w, first, first, 0.1);
  EXPECT_EQ(backend.ledger().weight_writes, 1u);  // only w(0,0) moved
}

TEST(PhotonicBackend, ReadoutNoisePerturbsResults) {
  PhotonicBackendConfig cfg;
  cfg.readout_noise = 0.05;
  PhotonicBackend noisy(cfg);
  PhotonicBackend clean;
  const nn::Matrix w = random_matrix(4, 8, 9);
  nn::Vector x(8, 0.5);
  const nn::Vector yn = noisy.matmul(w, nn::as_row(x)).data();
  const nn::Vector yc = clean.matmul(w, nn::as_row(x)).data();
  double max_dev = 0.0;
  for (std::size_t i = 0; i < yn.size(); ++i) {
    max_dev = std::max(max_dev, std::abs(yn[i] - yc[i]));
  }
  EXPECT_GT(max_dev, 1e-6);
  EXPECT_LT(max_dev, 0.5);
}

TEST(PhotonicBackend, DimensionChecks) {
  PhotonicBackend backend;
  nn::Matrix w(2, 3, 0.1);
  EXPECT_THROW((void)backend.matmul(w, nn::as_row({1.0})), Error);
  EXPECT_THROW((void)backend.matmul_transposed(w, nn::as_row({1.0})), Error);
  EXPECT_THROW(backend.update_batch(w, nn::as_row({1.0}),
                                    nn::as_row({1.0, 1.0, 1.0}), 0.1),
               Error);
}

// --- batched GEMM path -----------------------------------------------------

void expect_ledger_eq(const PhotonicLedger& a, const PhotonicLedger& b) {
  EXPECT_EQ(a.weight_writes, b.weight_writes);
  EXPECT_EQ(a.program_events, b.program_events);
  EXPECT_EQ(a.symbols, b.symbols);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.activations, b.activations);
}

nn::Matrix random_batch(std::size_t batch, std::size_t cols,
                        std::uint64_t seed, double scale = 2.0) {
  Rng rng(seed);
  nn::Matrix x(batch, cols);
  for (double& v : x.data()) {
    v = rng.uniform(-scale, scale);
  }
  return x;
}

class BatchNoise : public ::testing::TestWithParam<double> {};

TEST_P(BatchNoise, MatmulBitIdenticalToMatvecLoop) {
  // Same-seeded backends must produce the same outputs, noise draws, and
  // ledger counters whether the block goes through one matmul or a loop of
  // one-row matmuls.
  PhotonicBackendConfig cfg;
  cfg.readout_noise = GetParam();
  PhotonicBackend batched(cfg);
  PhotonicBackend looped(cfg);
  const nn::Matrix w = random_matrix(13, 21, 31);
  const nn::Matrix x = random_batch(9, 21, 32);

  const nn::Matrix y = batched.matmul(w, x);
  ASSERT_EQ(y.rows(), 9u);
  ASSERT_EQ(y.cols(), 13u);
  nn::Matrix xb(1, w.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.data().begin());
    const nn::Vector yb = looped.matmul(w, xb).data();
    for (std::size_t r = 0; r < yb.size(); ++r) {
      EXPECT_EQ(y.at(b, r), yb[r]) << "sample " << b << " row " << r;
    }
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

TEST_P(BatchNoise, MatmulTransposedBitIdenticalToMatvecLoop) {
  PhotonicBackendConfig cfg;
  cfg.readout_noise = GetParam();
  PhotonicBackend batched(cfg);
  PhotonicBackend looped(cfg);
  const nn::Matrix w = random_matrix(11, 7, 33);
  const nn::Matrix x = random_batch(6, 11, 34);

  const nn::Matrix y = batched.matmul_transposed(w, x);
  ASSERT_EQ(y.rows(), 6u);
  ASSERT_EQ(y.cols(), 7u);
  nn::Matrix xb(1, w.rows());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.data().begin());
    const nn::Vector yb = looped.matmul_transposed(w, xb).data();
    for (std::size_t c = 0; c < yb.size(); ++c) {
      EXPECT_EQ(y.at(b, c), yb[c]) << "sample " << b << " col " << c;
    }
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

INSTANTIATE_TEST_SUITE_P(Noise, BatchNoise, ::testing::Values(0.0, 0.05));

TEST(PhotonicBackendBatch, UpdateBatchMatchesSequentialRank1) {
  // update_batch is DEFINED as the sequential per-sample loop (in-situ
  // programming quantizes after every sample) — one block and a loop of
  // one-row updates must leave the same weights and ledger.
  PhotonicBackend batched;
  PhotonicBackend looped;
  nn::Matrix wb = random_matrix(5, 8, 35, 0.5);
  nn::Matrix wl = wb;
  const nn::Matrix dh = random_batch(4, 5, 36, 0.1);
  const nn::Matrix y_prev = random_batch(4, 8, 37, 1.0);

  batched.update_batch(wb, dh, y_prev, 0.05);
  nn::Matrix dhb(1, 5);
  nn::Matrix yb(1, 8);
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto dr = dh.row(b);
    const auto yr = y_prev.row(b);
    std::copy(dr.begin(), dr.end(), dhb.data().begin());
    std::copy(yr.begin(), yr.end(), yb.data().begin());
    looped.update_batch(wl, dhb, yb, 0.05);
  }
  for (std::size_t i = 0; i < wb.size(); ++i) {
    EXPECT_EQ(wb.data()[i], wl.data()[i]);
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

TEST(PhotonicBackendBatch, MatmulKeepsMatrixResident) {
  // A batch charges exactly one programming event for a fresh matrix, and
  // none when the matrix is already resident.
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 38);
  const nn::Matrix x = random_batch(5, 4, 39);
  (void)backend.matmul(w, x);
  EXPECT_EQ(backend.ledger().program_events, 1u);
  EXPECT_EQ(backend.ledger().weight_writes, 16u);
  (void)backend.matmul(w, x);
  EXPECT_EQ(backend.ledger().program_events, 1u);
  EXPECT_EQ(backend.ledger().symbols, 10u);
}

TEST(PhotonicBackendBatch, DimensionChecks) {
  PhotonicBackend backend;
  nn::Matrix w(2, 3, 0.1);
  EXPECT_THROW((void)backend.matmul(w, nn::Matrix(2, 2)), Error);
  EXPECT_THROW((void)backend.matmul_transposed(w, nn::Matrix(2, 3)), Error);
}

// --- stochastic-rounding update kernel ------------------------------------

/// Reference for the stochastic-rounding update: the plain per-cell loop,
/// one std::bernoulli_distribution trial per cell, row-major.  The backend's
/// draw and apply passes must reproduce its stored bits, ledger and engine
/// state exactly.
class PerCellReference {
 public:
  PerCellReference(int bits, std::uint64_t seed)
      : weight_quantizer_(bits, 1.0), rng_(seed) {}

  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) {
    for (std::size_t b = 0; b < dh.rows(); ++b) {
      const auto dhb = dh.row(b);
      const auto yb = y_prev.row(b);
      ledger_.symbols += w.rows();
      ledger_.macs += w.size();
      std::uint64_t changed = 0;
      for (std::size_t r = 0; r < w.rows(); ++r) {
        auto row = w.row(r);
        for (std::size_t c = 0; c < row.size(); ++c) {
          const double target = row[c] - lr * dhb[r] * yb[c];
          const double quantized = quantize_weight(target, 1.0);
          if (quantized != row[c]) {
            row[c] = quantized;
            ++changed;
          }
        }
      }
      ledger_.weight_writes += changed;
      if (changed > 0) {
        ledger_.program_events += 1;
      }
    }
  }

  [[nodiscard]] const PhotonicLedger& ledger() const { return ledger_; }
  [[nodiscard]] std::string rng_state() const { return rng_.state(); }

 private:
  double quantize_weight(double v, double scale) {
    const double unit = std::clamp(v / scale, -1.0, 1.0);
    const double step = weight_quantizer_.step();
    const double scaled = unit / step;
    const double floor_level = std::floor(scaled);
    const double frac = scaled - floor_level;
    const double level =
        rng_.bernoulli(frac) ? floor_level + 1.0 : floor_level;
    const double q = std::clamp(level * step, -1.0, 1.0);
    return q * scale;
  }

  SymmetricQuantizer weight_quantizer_;
  Rng rng_;
  PhotonicLedger ledger_;
};

struct UpdateCase {
  const char* name;
  int bits;
  nn::Matrix w;
  nn::Matrix dh;
  nn::Matrix y;
  double lr;
};

/// Runs `steps` identical update_batch calls through the backend and the
/// per-cell reference from the same seed, asserting equal weight bits,
/// ledgers and engine states after every call.
void expect_matches_per_cell_loop(const UpdateCase& tc, int steps = 4) {
  SCOPED_TRACE(tc.name);
  constexpr std::uint64_t kSeed = 0x51ce;
  PhotonicBackendConfig cfg;
  cfg.weight_bits = tc.bits;
  cfg.stochastic_rounding = true;
  cfg.seed = kSeed;
  PhotonicBackend backend(cfg);
  PerCellReference reference(tc.bits, kSeed);
  nn::Matrix wk = tc.w;
  nn::Matrix wr = tc.w;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(step);
    backend.update_batch(wk, tc.dh, tc.y, tc.lr);
    reference.update_batch(wr, tc.dh, tc.y, tc.lr);
    ASSERT_EQ(0, std::memcmp(wk.data().data(), wr.data().data(),
                             wk.size() * sizeof(double)));
    expect_ledger_eq(backend.ledger(), reference.ledger());
    ASSERT_EQ(backend.rng_state(), reference.rng_state());
  }
}

/// Weights on the `bits`-bit grid, uniform in [-limit, limit].
nn::Matrix grid_matrix(std::size_t rows, std::size_t cols, int bits,
                       std::uint64_t seed, double limit = 0.9) {
  nn::Matrix w = random_matrix(rows, cols, seed, limit);
  const SymmetricQuantizer q(bits);
  for (double& v : w.data()) {
    v = q.quantize(v);
  }
  return w;
}

struct UpdateShape {
  std::size_t rows;
  std::size_t cols;
  std::size_t batch;
};

class StochasticUpdateShape : public ::testing::TestWithParam<UpdateShape> {};

TEST_P(StochasticUpdateShape, MatchesPerCellBernoulliLoop) {
  const auto [rows, cols, batch] = GetParam();
  expect_matches_per_cell_loop(
      {"random", 8, grid_matrix(rows, cols, 8, 40 + rows),
       random_batch(batch, rows, 41 + cols, 0.2),
       random_batch(batch, cols, 42, 1.0), 0.05});
}

/// Runs `steps` one-sample nearest_round_update calls per row of `tc.dh`
/// against the per-cell quantize loop it replaced, asserting equal weight
/// bits and changed-cell counts after every call.
void expect_nearest_matches_per_cell_loop(const UpdateCase& tc,
                                          int steps = 4) {
  SCOPED_TRACE(tc.name);
  const SymmetricQuantizer q(tc.bits);
  nn::Matrix wk = tc.w;
  nn::Matrix wr = tc.w;
  for (int step = 0; step < steps; ++step) {
    for (std::size_t b = 0; b < tc.dh.rows(); ++b) {
      SCOPED_TRACE(step);
      const auto dh = tc.dh.row(b);
      const auto y = tc.y.row(b);
      std::uint64_t want = 0;
      for (std::size_t r = 0; r < wr.rows(); ++r) {
        auto row = wr.row(r);
        for (std::size_t c = 0; c < row.size(); ++c) {
          const double target = row[c] - tc.lr * dh[r] * y[c];
          const double quantized = q.quantize(std::clamp(target, -1.0, 1.0));
          if (quantized != row[c]) {
            row[c] = quantized;
            ++want;
          }
        }
      }
      const std::uint64_t got =
          nearest_round_update(wk.data().data(), wk.rows(), wk.cols(),
                               dh.data(), y.data(), tc.lr, q.step());
      ASSERT_EQ(got, want);
      ASSERT_EQ(0, std::memcmp(wk.data().data(), wr.data().data(),
                               wk.size() * sizeof(double)));
    }
  }
}

TEST_P(StochasticUpdateShape, NearestMatchesPerCellQuantizeLoop) {
  // Off-grid starting weights, so the first call moves most cells.
  const auto [rows, cols, batch] = GetParam();
  expect_nearest_matches_per_cell_loop(
      {"random", 8, random_matrix(rows, cols, 40 + rows, 0.9),
       random_batch(batch, rows, 41 + cols, 0.2),
       random_batch(batch, cols, 42, 1.0), 0.05});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StochasticUpdateShape,
    ::testing::Values(UpdateShape{1, 1, 1}, UpdateShape{1, 17, 1},
                      UpdateShape{7, 9, 1}, UpdateShape{64, 33, 1},
                      UpdateShape{16, 64, 1}, UpdateShape{7, 9, 3}),
    [](const ::testing::TestParamInfo<UpdateShape>& shape) {
      return std::to_string(shape.param.rows) + "x" +
             std::to_string(shape.param.cols) + "_b" +
             std::to_string(shape.param.batch);
    });

TEST(StochasticUpdate, SaturatesPastBothEndsLikePerCellLoop) {
  // Near-full-scale weights under a large step land beyond ±1 and clamp.
  nn::Matrix w = grid_matrix(7, 9, 8, 50, 1.0);
  for (std::size_t i = 0; i < w.size(); i += 2) {
    w.data()[i] = i % 4 == 0 ? 1.0 : -1.0;
  }
  expect_matches_per_cell_loop({"saturation", 8, w,
                                random_batch(1, 7, 51, 1.0),
                                random_batch(1, 9, 52, 1.0), 5.0});
}

TEST(StochasticUpdate, ExactLevelHitsNeverRoundUp) {
  // frac = 0 exactly: no draw is below 0, so such a cell never rounds up.
  // With two bits the step is 1.0, and the targets w - 0.5·dh·y land on
  // whole levels and exact halves.
  nn::Matrix w(3, 4);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<double>(static_cast<int>(i % 3) - 1);
  }
  const nn::Matrix dh = nn::as_row({0.0, 2.0, -2.0});
  const nn::Matrix y = nn::as_row({1.0, -1.0, 0.5, 0.0});
  expect_matches_per_cell_loop({"2-bit levels", 2, w, dh, y, 0.5});

  // Eight bits, zero gradient: levels whose value divides back exactly.
  const double step = SymmetricQuantizer(8).step();
  nn::Matrix w8(4, 5);
  int level = -127;
  for (double& v : w8.data()) {
    while (static_cast<double>(level) * step / step !=
           static_cast<double>(level)) {
      ++level;
    }
    v = static_cast<double>(level++) * step;
  }
  PhotonicBackendConfig cfg;
  cfg.stochastic_rounding = true;
  PhotonicBackend backend(cfg);
  nn::Matrix moved = w8;
  backend.update_batch(moved, nn::Matrix(1, 4, 0.0), nn::Matrix(1, 5, 0.7),
                       0.1);
  EXPECT_EQ(0, std::memcmp(moved.data().data(), w8.data().data(),
                           w8.size() * sizeof(double)));
  EXPECT_EQ(backend.ledger().weight_writes, 0u);
  expect_matches_per_cell_loop({"8-bit exact levels", 8, w8,
                                nn::Matrix(1, 4, 0.0),
                                nn::Matrix(1, 5, 0.7), 0.1});
}

TEST(StochasticUpdate, ZeroLearningRateMatchesPerCellLoop) {
  expect_matches_per_cell_loop({"lr = 0", 8, grid_matrix(7, 9, 8, 53),
                                random_batch(2, 7, 54, 0.2),
                                random_batch(2, 9, 55, 1.0), 0.0});
}

TEST(StochasticUpdate, NanGradientStoresNanLikePerCellLoop) {
  nn::Matrix dh = random_batch(1, 7, 56, 0.2);
  dh.at(0, 3) = std::numeric_limits<double>::quiet_NaN();
  expect_matches_per_cell_loop({"NaN in dh", 8, grid_matrix(7, 9, 8, 57), dh,
                                random_batch(1, 9, 58, 1.0), 0.05});

  PhotonicBackendConfig cfg;
  cfg.stochastic_rounding = true;
  PhotonicBackend backend(cfg);
  nn::Matrix w = grid_matrix(7, 9, 8, 57);
  backend.update_batch(w, dh, random_batch(1, 9, 58, 1.0), 0.05);
  for (std::size_t c = 0; c < w.cols(); ++c) {
    EXPECT_TRUE(std::isnan(w.at(3, c))) << "col " << c;
  }
}

TEST(StochasticUpdate, OverflowingStepKeepsTheProductOrder) {
  // lr·dh overflows to inf, so (lr·dh)·0 is NaN where lr·(dh·0) would be
  // 0: the kernel must multiply in the per-cell loop's order.
  nn::Matrix dh = random_batch(1, 7, 60, 0.2);
  dh.at(0, 2) = 1e300;
  dh.at(0, 5) = -1e300;
  nn::Matrix y = random_batch(1, 9, 61, 1.0);
  y.at(0, 4) = 0.0;
  expect_matches_per_cell_loop(
      {"lr·dh = ±inf", 8, grid_matrix(7, 9, 8, 62), dh, y, 1e10});
}

/// A URBG that returns preset 64-bit outputs (mt19937_64's range).
struct PresetBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return values[next++]; }
  std::vector<result_type> values;
  std::size_t next = 0;
};

TEST(StochasticUpdate, CanonicalFromBitsMatchesGenerateCanonical) {
  // Exact conversions, round-to-nearest-even ties around 2⁵³ and 2⁶³, and
  // the outputs that round up to 2⁶⁴ and so clamp below 1.
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  std::vector<std::uint64_t> xs = {0,
                                   1,
                                   0xffffffffu,
                                   0x100000000u,
                                   (std::uint64_t{1} << 53) - 1,
                                   (std::uint64_t{1} << 53) + 1,
                                   (std::uint64_t{1} << 53) + 3,
                                   (std::uint64_t{1} << 63) + 1024,
                                   (std::uint64_t{1} << 63) + 3072,
                                   kTop - 2048,
                                   kTop - 1024,
                                   kTop - 1023,
                                   kTop};
  std::mt19937_64 engine(0x5eed);
  for (int i = 0; i < 4096; ++i) {
    xs.push_back(engine());
  }
  PresetBits bits{xs};
  for (const std::uint64_t x : xs) {
    const double expected =
        std::generate_canonical<double, std::numeric_limits<double>::digits>(
            bits);
    const double got = canonical_from_bits(x);
    EXPECT_EQ(0, std::memcmp(&got, &expected, sizeof(double))) << "x = " << x;
  }
  EXPECT_EQ(canonical_from_bits(kTop), 1.0 - 0x1p-53);
}

TEST(StochasticUpdate, NegativeZeroKeepsItsBitsUnderZeroGradient) {
  // -0.0 - (+0.0·y) can round to +0.0; equal values keep the old bits.
  const nn::Matrix w(5, 6, -0.0);
  expect_matches_per_cell_loop({"-0.0 weights", 8, w, nn::Matrix(1, 5, 0.0),
                                random_batch(1, 6, 59, 1.0), 0.05});

  PhotonicBackendConfig cfg;
  cfg.stochastic_rounding = true;
  PhotonicBackend backend(cfg);
  nn::Matrix moved = w;
  backend.update_batch(moved, nn::Matrix(1, 5, 0.0),
                       random_batch(1, 6, 59, 1.0), 0.05);
  for (double v : moved.data()) {
    EXPECT_TRUE(std::signbit(v));
  }
  EXPECT_EQ(backend.ledger().weight_writes, 0u);
}

TEST(StochasticUpdate, NearestEdgeCasesMatchPerCellQuantizeLoop) {
  expect_nearest_matches_per_cell_loop(
      {"lr = 0", 8, random_matrix(7, 9, 63, 0.9), random_batch(2, 7, 64, 0.2),
       random_batch(2, 9, 65, 1.0), 0.0});

  nn::Matrix dh = random_batch(1, 7, 66, 0.2);
  dh.at(0, 3) = std::numeric_limits<double>::quiet_NaN();
  expect_nearest_matches_per_cell_loop({"NaN in dh", 8,
                                        grid_matrix(7, 9, 8, 67), dh,
                                        random_batch(1, 9, 68, 1.0), 0.05});

  // A -0.0 cell under a zero gradient compares equal to its level and
  // keeps its bits.
  nn::Matrix w(5, 6, -0.0);
  expect_nearest_matches_per_cell_loop({"-0.0 weights", 8, w,
                                        nn::Matrix(1, 5, 0.0),
                                        random_batch(1, 6, 69, 1.0), 0.05});
  const double step = SymmetricQuantizer(8).step();
  EXPECT_EQ(nearest_round_update(w.data().data(), w.rows(), w.cols(),
                                 nn::Matrix(1, 5, 0.0).data().data(),
                                 random_batch(1, 6, 69, 1.0).data().data(),
                                 0.05, step),
            0u);
  for (double v : w.data()) {
    EXPECT_TRUE(std::signbit(v));
  }

  // Off-grid cells pushed just below zero land on level 0 as +0.0.
  nn::Matrix near_zero(2, 3, 0.3 * step);
  const nn::Matrix push = nn::Matrix(1, 2, 1.0);
  const nn::Matrix y(1, 3, 0.31 * step);
  expect_nearest_matches_per_cell_loop(
      {"just below zero", 8, near_zero, push, y, 1.0}, 1);
  EXPECT_EQ(nearest_round_update(near_zero.data().data(), 2, 3,
                                 push.data().data(), y.data().data(), 1.0,
                                 step),
            6u);
  for (double v : near_zero.data()) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));
  }
}

class BackendBits : public ::testing::TestWithParam<int> {};

TEST_P(BackendBits, MatvecErrorShrinksWithBits) {
  const int bits = GetParam();
  PhotonicBackendConfig cfg;
  cfg.weight_bits = bits;
  cfg.input_bits = bits;
  PhotonicBackend backend(cfg);
  const nn::Matrix w = random_matrix(8, 8, 10);
  nn::Vector x(8);
  Rng rng(11);
  for (auto& v : x) {
    v = rng.uniform(0.0, 1.0);
  }
  const nn::Vector y = backend.matmul(w, nn::as_row(x)).data();
  const nn::Vector ref = w.matvec(x);
  double err = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    err = std::max(err, std::abs(y[i] - ref[i]));
  }
  // Error bound scales with the input quantizer step.
  SymmetricQuantizer q(bits);
  EXPECT_LE(err, 8.0 * q.step());
}

INSTANTIATE_TEST_SUITE_P(Bits, BackendBits, ::testing::Values(4, 6, 8, 10));

}  // namespace
}  // namespace trident::core
