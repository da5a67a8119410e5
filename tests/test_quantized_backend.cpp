// Quantized int8 tier: error-bound contract against the double reference,
// bit-identity of batched vs single-sample execution, PhotonicBackend
// ledger parity, plan-cache invalidation, and the full-model-zoo
// fast-vs-exact equivalence suite on the served path (ExecutionPlan::run).
#include "core/quantized_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"

namespace core = trident::core;
namespace nn = trident::nn;
using trident::Rng;

namespace {

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, double lo,
                         double hi, Rng& rng) {
  nn::Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.uniform(lo, hi);
  }
  return m;
}

double max_abs_diff(const nn::Matrix& a, const nn::Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

double row_scale(std::span<const double> row) {
  double s = 1.0;
  for (double v : row) {
    s = std::max(s, std::abs(v));
  }
  return s;
}

/// Served-path audit of one model: `eval` through ExecutionPlan::run on a
/// QuantizedBackend (the fused int8 fast tier) and through the per-op
/// FloatBackend forward (the reference), plus each sample's closed-form
/// plan_error_bound and the top-1 agreement rate.
struct ServedReport {
  nn::Matrix exact;           ///< reference logits (batch × out)
  nn::Matrix fast;            ///< served-tier logits (batch × out)
  std::vector<double> bound;  ///< per-sample error bound
  double max_abs_error = 0.0;
  double top1_agreement = 1.0;  ///< fraction of samples with matching argmax
};

std::size_t argmax(std::span<const double> row) {
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
}

ServedReport audit_served_path(const nn::Mlp& model, const nn::Matrix& eval) {
  // The bound assumes weights in [-1, 1] (the clamped panel is the model).
  for (int k = 0; k < model.depth(); ++k) {
    for (double v : model.weight(k).data()) {
      EXPECT_LE(std::abs(v), 1.0) << "layer " << k << " weight out of range";
    }
  }
  const nn::ExecutionPlan plan(model);
  core::QuantizedBackend fast;
  nn::PlanArena arena;
  nn::FloatBackend reference;

  ServedReport report;
  report.exact = model.forward_batch(eval, reference).activations.back();
  report.fast = plan.run(fast, eval, arena);
  std::size_t agree = 0;
  for (std::size_t b = 0; b < eval.rows(); ++b) {
    const auto xr = eval.row(b);
    double max_abs_x = 0.0;
    for (double v : xr) {
      max_abs_x = std::max(max_abs_x, std::abs(v));
    }
    report.bound.push_back(fast.plan_error_bound(plan, max_abs_x));
    const auto er = report.exact.row(b);
    const auto fr = report.fast.row(b);
    for (std::size_t r = 0; r < er.size(); ++r) {
      report.max_abs_error =
          std::max(report.max_abs_error, std::abs(fr[r] - er[r]));
    }
    if (argmax(er) == argmax(fr)) {
      ++agree;
    }
  }
  report.top1_agreement =
      static_cast<double>(agree) / static_cast<double>(eval.rows());
  return report;
}

}  // namespace

TEST(QuantizedBackend, MatmulWithinErrorBoundOfDoubleReference) {
  Rng rng(0xfa57u);
  core::QuantizedBackend fast;
  nn::FloatBackend exact;
  const nn::Matrix w = random_matrix(24, 48, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(16, 48, -2.0, 2.0, rng);

  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix ye = exact.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - ye.at(b, r)), bound)
          << "sample " << b << " row " << r;
    }
  }
}

TEST(QuantizedBackend, MatchesNoiseFreePhotonicBackendWithinBound) {
  Rng rng(0xfa58u);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;  // defaults: no noise, deterministic
  const nn::Matrix w = random_matrix(12, 30, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(9, 30, -3.0, 3.0, rng);

  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix yp = photonic.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - yp.at(b, r)), bound);
    }
  }
}

TEST(QuantizedBackend, OnGridOperandsReproduceThePhotonicPathAlmostExactly) {
  // Weights already on the 8-bit grid and inputs already on the DAC grid
  // with scale 1: the only difference left is double vs int accumulation.
  Rng rng(0xfa59u);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;
  const trident::SymmetricQuantizer grid(8, 1.0);
  nn::Matrix w = random_matrix(10, 20, -1.0, 1.0, rng);
  nn::Matrix x = random_matrix(4, 20, -1.0, 1.0, rng);
  for (double& v : w.data()) {
    v = grid.quantize(v);
  }
  for (double& v : x.data()) {
    v = grid.quantize(v);
  }
  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix yp = photonic.matmul(w, x);
  EXPECT_LE(max_abs_diff(yf, yp),
            20 * 4 * std::numeric_limits<double>::epsilon() * 20);
}

TEST(QuantizedBackend, BatchedBitIdenticalToSingleSamplePath) {
  Rng rng(0xfa5au);
  const nn::Matrix w = random_matrix(17, 33, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(21, 33, -2.0, 2.0, rng);

  core::QuantizedBackend batched;
  const nn::Matrix y = batched.matmul(w, x);

  core::QuantizedBackend single;
  nn::Matrix xb(1, x.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.data().begin());
    const nn::Vector yb = single.matmul(w, xb).data();
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_EQ(y.at(b, r), yb[r]) << "sample " << b << " row " << r;
    }
  }
}

TEST(QuantizedBackend, LedgerMatchesPhotonicBackendCallForCall) {
  Rng rng(0xfa5bu);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;
  const nn::Matrix w1 = random_matrix(8, 12, -1.0, 1.0, rng);
  const nn::Matrix w2 = random_matrix(6, 8, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(5, 12, -1.5, 1.5, rng);
  const nn::Matrix g = random_matrix(5, 8, -0.5, 0.5, rng);
  const nn::Matrix dh(1, 8, 0.1);
  const nn::Matrix y_prev(1, 12, 0.2);
  const nn::Matrix x2(1, 8, 0.5);

  // Identical call sequences; weights mutate, so each backend gets copies.
  nn::Matrix wf = w1;
  nn::Matrix wp = w1;
  (void)fast.matmul(wf, x);       // program + block
  (void)fast.matmul(wf, x);       // resident reuse: no programming charge
  (void)fast.matmul(w2, x2);      // re-program with w2
  (void)fast.matmul_transposed(wf, g);
  fast.update_batch(wf, dh, y_prev, 0.05);

  (void)photonic.matmul(wp, x);
  (void)photonic.matmul(wp, x);
  (void)photonic.matmul(w2, x2);
  (void)photonic.matmul_transposed(wp, g);
  photonic.update_batch(wp, dh, y_prev, 0.05);

  EXPECT_EQ(fast.ledger(), photonic.ledger());
  // The deterministic grid update itself must also agree element for
  // element (both land on the same 8-bit level).
  EXPECT_EQ(wf.data(), wp.data());
}

TEST(QuantizedBackend, PlanCacheRecompilesWhenWeightsChangeInPlace) {
  Rng rng(0xfa5cu);
  core::QuantizedBackend fast;
  nn::FloatBackend exact;
  nn::Matrix w = random_matrix(6, 10, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(3, 10, -1.0, 1.0, rng);

  (void)fast.matmul(w, x);  // packs the original values

  // Hot-swap style mutation: new values, same buffer address.
  for (double& v : w.data()) {
    v = -v * 0.5;
  }
  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix ye = exact.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - ye.at(b, r)), bound)
          << "stale levels served after in-place weight change";
    }
  }
}

TEST(ServedFastTier, FusedForwardHonoursTheErrorBound) {
  Rng rng(0x90au);
  nn::Mlp model({20, 32, 16, 10}, nn::Activation::kReLU, rng);
  const nn::Matrix eval = random_matrix(24, 20, -1.5, 1.5, rng);

  const ServedReport report = audit_served_path(model, eval);
  for (std::size_t b = 0; b < eval.rows(); ++b) {
    const auto er = report.exact.row(b);
    const auto fr = report.fast.row(b);
    for (std::size_t r = 0; r < er.size(); ++r) {
      EXPECT_LE(std::abs(fr[r] - er[r]), report.bound[b])
          << "sample " << b << " logit " << r;
    }
  }
}

TEST(ServedFastTier, GstActivationModelAlsoHonoursTheBound) {
  Rng rng(0x90bu);
  nn::Mlp model({16, 24, 8}, nn::Activation::kGstPhotonic, rng);
  const nn::Matrix eval = random_matrix(16, 16, -1.0, 1.0, rng);
  const ServedReport report = audit_served_path(model, eval);
  EXPECT_LE(report.max_abs_error,
            *std::max_element(report.bound.begin(), report.bound.end()));
}

TEST(ServedFastTier, FullModelZooMeetsTheFastVsExactContract) {
  // Every zoo model, as a deterministic dense surrogate: the served int8
  // tier must stay within its computed bound on every logit of every
  // sample, and top-1 decisions must overwhelmingly agree.
  std::vector<nn::ModelSpec> specs = nn::zoo::evaluation_models();
  specs.push_back(nn::zoo::lenet5());
  Rng rng(0x200du);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const nn::Mlp model = nn::zoo::surrogate_mlp(spec);
    const std::size_t in =
        static_cast<std::size_t>(model.layer_sizes().front());
    const nn::Matrix eval = random_matrix(32, in, -1.0, 1.0, rng);

    const ServedReport report = audit_served_path(model, eval);
    for (std::size_t b = 0; b < eval.rows(); ++b) {
      const auto er = report.exact.row(b);
      const auto fr = report.fast.row(b);
      for (std::size_t r = 0; r < er.size(); ++r) {
        ASSERT_LE(std::abs(fr[r] - er[r]), report.bound[b])
            << "sample " << b << " logit " << r;
      }
      // Decision stability is a *theorem* given the bound: whenever the
      // exact top-2 margin exceeds twice the per-sample bound, the fast
      // tier cannot flip the argmax.  (Samples inside the margin are
      // genuine near-ties — random surrogate logits cluster — where a
      // flip is consistent with the bound.)
      std::size_t best = 0, second = 0;
      for (std::size_t r = 1; r < er.size(); ++r) {
        if (er[r] > er[best]) {
          second = best;
          best = r;
        } else if (er[r] > er[second] || second == best) {
          second = r;
        }
      }
      if (er.size() > 1 && er[best] - er[second] > 2.0 * report.bound[b]) {
        EXPECT_EQ(argmax(fr), best)
            << "argmax flipped outside the near-tie margin, sample " << b;
      }
    }
    // Deterministic seeds: the rate is a fixed number per model.  Most
    // random-logit samples are near-ties, so the global floor is loose;
    // the margin check above is the sharp assertion.
    EXPECT_GE(report.top1_agreement, 0.75);
  }
}

TEST(QuantizedBackend, RejectsGridsWiderThanInt8) {
  core::QuantizedBackendConfig cfg;
  cfg.weight_bits = 9;
  EXPECT_THROW(core::QuantizedBackend{cfg}, trident::Error);
  cfg.weight_bits = 8;
  cfg.input_bits = 12;
  EXPECT_THROW(core::QuantizedBackend{cfg}, trident::Error);
}

TEST(QuantizedBackend, PlanCacheSurvivesAddressReuseWithNewContent) {
  // The ABA hazard of any address-keyed weight cache: free a matrix,
  // allocate a different one at the same address, and serve the old packed
  // levels.  Loop a few times so the allocator has every chance to reuse
  // the address; correctness must hold either way.
  core::QuantizedBackend backend;
  Rng rng(0xABAu);
  auto first = std::make_unique<nn::Matrix>(random_matrix(6, 10, -1.0, 1.0,
                                                          rng));
  const void* first_addr = first.get();
  (void)backend.matmul(*first, random_matrix(2, 10, -1.0, 1.0, rng));

  bool address_reused = false;
  for (int attempt = 0; attempt < 32; ++attempt) {
    first.reset();
    auto second = std::make_unique<nn::Matrix>(
        random_matrix(6, 10, -1.0, 1.0, rng));
    address_reused = address_reused || second.get() == first_addr;
    const nn::Matrix x = random_matrix(3, 10, -1.0, 1.0, rng);
    const nn::Matrix got = backend.matmul(*second, x);
    // A fresh backend has seen no other matrix: its output is the ground
    // truth for these weights.
    core::QuantizedBackend fresh;
    const nn::Matrix want = fresh.matmul(*second, x);
    for (std::size_t b = 0; b < x.rows(); ++b) {
      for (std::size_t r = 0; r < second->rows(); ++r) {
        ASSERT_EQ(got.at(b, r), want.at(b, r))
            << "attempt " << attempt << " (address reused: " << address_reused
            << "), sample " << b << " row " << r;
      }
    }
    first = std::move(second);
  }
}
