// MLP tests, including the numerical-gradient check that pins down the
// backprop implementation (Eqs. 1-3 of the paper).
#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace trident::nn {
namespace {

TEST(Activation, ReluAndDerivative) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kReLU, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kReLU, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(activation_derivative(Activation::kReLU, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activation_derivative(Activation::kReLU, 2.0), 1.0);
}

TEST(Activation, GstPhotonicMatchesPaperLinearisation) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kGstPhotonic, -1.0), 0.0);
  EXPECT_NEAR(apply_activation(Activation::kGstPhotonic, 2.0), 0.68, 1e-12);
  EXPECT_NEAR(activation_derivative(Activation::kGstPhotonic, 0.5), 0.34,
              1e-12);
  EXPECT_DOUBLE_EQ(activation_derivative(Activation::kGstPhotonic, -0.5), 0.0);
}

TEST(Mlp, ConstructionShapes) {
  Rng rng(1);
  Mlp net({4, 8, 3}, Activation::kReLU, rng);
  EXPECT_EQ(net.depth(), 2);
  EXPECT_EQ(net.weight(0).rows(), 8u);
  EXPECT_EQ(net.weight(0).cols(), 4u);
  EXPECT_EQ(net.weight(1).rows(), 3u);
  EXPECT_THROW((void)net.weight(2), Error);
  EXPECT_THROW(Mlp({4}, Activation::kReLU, rng), Error);
}

TEST(Mlp, ForwardTraceShapes) {
  Rng rng(2);
  Mlp net({4, 8, 3}, Activation::kReLU, rng);
  FloatBackend backend;
  const ForwardTrace t = net.forward({0.1, 0.2, 0.3, 0.4}, backend);
  ASSERT_EQ(t.activations.size(), 3u);
  ASSERT_EQ(t.logits.size(), 2u);
  EXPECT_EQ(t.activations[0].size(), 4u);
  EXPECT_EQ(t.activations[1].size(), 8u);
  EXPECT_EQ(t.activations[2].size(), 3u);
  EXPECT_THROW((void)net.forward({0.1}, backend), Error);
}

TEST(Mlp, OutputLayerIsLinear) {
  Rng rng(3);
  Mlp net({2, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  const ForwardTrace t = net.forward({1.0, -1.0}, backend);
  // Single (output) layer: activations equal logits exactly.
  EXPECT_EQ(t.activations.back(), t.logits.back());
}

TEST(Softmax, SumsToOneAndOrdersCorrectly) {
  const Vector p = softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Vector p = softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(SoftmaxCrossEntropy, LossAndGradient) {
  const LossGrad lg = softmax_cross_entropy({0.0, 0.0}, 0);
  EXPECT_NEAR(lg.loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(lg.grad[0], -0.5, 1e-12);
  EXPECT_NEAR(lg.grad[1], 0.5, 1e-12);
  EXPECT_THROW((void)softmax_cross_entropy({0.0, 0.0}, 2), Error);
}

// The load-bearing property test: analytic gradients from Mlp::backward
// must match central-difference numerical gradients of the loss.
TEST(Mlp, GradientMatchesNumericalDifferentiation) {
  Rng rng(7);
  Mlp net({3, 5, 4, 2}, Activation::kReLU, rng);
  const Vector x{0.3, -0.7, 0.9};
  const int label = 1;

  // Analytic: run backward with lr chosen so W' = W - grad, recover grad.
  Mlp trained = net;
  FloatBackend backend;
  const ForwardTrace trace = trained.forward(x, backend);
  const LossGrad lg =
      softmax_cross_entropy(trace.activations.back(), label);
  trained.backward(trace, lg.grad, 1.0, backend);

  const double eps = 1e-6;
  for (int k = 0; k < net.depth(); ++k) {
    const Matrix& w0 = net.weight(k);
    const Matrix& w1 = trained.weight(k);
    // Sample a few entries per layer.
    for (std::size_t r = 0; r < w0.rows(); r += 2) {
      for (std::size_t c = 0; c < w0.cols(); c += 2) {
        const double analytic = w0.at(r, c) - w1.at(r, c);
        Mlp plus = net, minus = net;
        plus.weight(k).at(r, c) += eps;
        minus.weight(k).at(r, c) -= eps;
        const double lp = softmax_cross_entropy(
                              plus.forward(x, backend).activations.back(),
                              label)
                              .loss;
        const double lm = softmax_cross_entropy(
                              minus.forward(x, backend).activations.back(),
                              label)
                              .loss;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(analytic, numeric, 1e-5)
            << "layer " << k << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(Mlp, GradientCheckWithGstActivation) {
  // Same property with the GST linearised activation — validates that the
  // LDSU-style two-valued derivative is consistent with the forward pass.
  Rng rng(8);
  Mlp net({3, 6, 2}, Activation::kGstPhotonic, rng);
  const Vector x{0.5, -0.5, 1.0};
  const int label = 0;

  Mlp trained = net;
  FloatBackend backend;
  const ForwardTrace trace = trained.forward(x, backend);
  const LossGrad lg = softmax_cross_entropy(trace.activations.back(), label);
  trained.backward(trace, lg.grad, 1.0, backend);

  const double eps = 1e-6;
  for (int k = 0; k < net.depth(); ++k) {
    for (std::size_t r = 0; r < net.weight(k).rows(); ++r) {
      for (std::size_t c = 0; c < net.weight(k).cols(); ++c) {
        const double analytic =
            net.weight(k).at(r, c) - trained.weight(k).at(r, c);
        Mlp plus = net, minus = net;
        plus.weight(k).at(r, c) += eps;
        minus.weight(k).at(r, c) -= eps;
        const double lp =
            softmax_cross_entropy(plus.forward(x, backend).activations.back(),
                                  label)
                .loss;
        const double lm =
            softmax_cross_entropy(minus.forward(x, backend).activations.back(),
                                  label)
                .loss;
        EXPECT_NEAR(analytic, (lp - lm) / (2.0 * eps), 1e-5);
      }
    }
  }
}

TEST(Mlp, BackwardReducesLossOnAverage) {
  Rng rng(9);
  Mlp net({2, 8, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  const Vector x{0.4, -0.8};
  const int label = 1;
  double prev = softmax_cross_entropy(
                    net.forward(x, backend).activations.back(), label)
                    .loss;
  for (int i = 0; i < 60; ++i) {
    const ForwardTrace t = net.forward(x, backend);
    const LossGrad lg = softmax_cross_entropy(t.activations.back(), label);
    net.backward(t, lg.grad, 0.1, backend);
  }
  const double after = softmax_cross_entropy(
                           net.forward(x, backend).activations.back(), label)
                           .loss;
  EXPECT_LT(after, prev);
  EXPECT_LT(after, 0.1);
}

TEST(Mlp, PredictUsesFloatBackend) {
  Rng rng(10);
  Mlp net({2, 3}, Activation::kReLU, rng);
  FloatBackend backend;
  const Vector direct = net.forward({1.0, 2.0}, backend).activations.back();
  EXPECT_EQ(net.predict({1.0, 2.0}), direct);
}

TEST(Mlp, BackwardValidatesTrace) {
  Rng rng(11);
  Mlp net({2, 3}, Activation::kReLU, rng);
  FloatBackend backend;
  ForwardTrace bogus;
  EXPECT_THROW(net.backward(bogus, {1.0, 0.0, 0.0}, 0.1, backend), Error);
}

TEST(Mlp, ForwardBatchRowsEqualPerSampleForward) {
  Rng rng(12);
  Mlp net({4, 9, 3}, Activation::kGstPhotonic, rng);
  FloatBackend backend;
  Matrix x(6, 4);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  const BatchForwardTrace batch = net.forward_batch(x, backend);
  EXPECT_EQ(batch.batch(), 6u);
  ASSERT_EQ(batch.activations.size(), 3u);
  ASSERT_EQ(batch.logits.size(), 2u);
  for (std::size_t b = 0; b < 6; ++b) {
    const auto row = x.row(b);
    const ForwardTrace single =
        net.forward(Vector(row.begin(), row.end()), backend);
    for (std::size_t layer = 0; layer < batch.activations.size(); ++layer) {
      const auto batch_row = batch.activations[layer].row(b);
      const Vector& ref = single.activations[layer];
      ASSERT_EQ(batch_row.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(batch_row[i], ref[i])
            << "sample " << b << " layer " << layer << " unit " << i;
      }
    }
  }
}

TEST(Mlp, BackwardBatchOfOneEqualsBackward) {
  // A single-sample batch must reproduce per-sample SGD exactly — that is
  // what keeps the batched training path bit-compatible at batch_size 1.
  Rng rng_a(13), rng_b(13);
  Mlp net_a({3, 7, 2}, Activation::kGstPhotonic, rng_a);
  Mlp net_b({3, 7, 2}, Activation::kGstPhotonic, rng_b);
  FloatBackend backend;
  const Vector x{0.4, -0.2, 0.9};
  const Vector grad{0.3, -0.3};

  const ForwardTrace trace_a = net_a.forward(x, backend);
  net_a.backward(trace_a, grad, 0.05, backend);

  Matrix xb(1, 3);
  std::copy(x.begin(), x.end(), xb.row(0).begin());
  Matrix gb(1, 2);
  std::copy(grad.begin(), grad.end(), gb.row(0).begin());
  const BatchForwardTrace trace_b = net_b.forward_batch(xb, backend);
  net_b.backward_batch(trace_b, gb, 0.05, backend);

  for (int k = 0; k < net_a.depth(); ++k) {
    const Matrix& wa = net_a.weight(k);
    const Matrix& wb = net_b.weight(k);
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa.data()[i], wb.data()[i]) << "layer " << k;
    }
  }
}

TEST(Mlp, BackwardBatchAppliesMinibatchUpdate) {
  // Multi-sample blocks propagate every sample through the pre-update
  // weights (minibatch semantics); with a float backend the resulting
  // update equals the sum of per-sample gradients computed at the ORIGINAL
  // weights.
  Rng rng_a(14), rng_b(14);
  Mlp batched({3, 5, 2}, Activation::kGstPhotonic, rng_a);
  Mlp reference({3, 5, 2}, Activation::kGstPhotonic, rng_b);
  FloatBackend backend;
  Matrix x(4, 3);
  Matrix grad(4, 2);
  Rng rng(15);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (double& v : grad.data()) {
    v = rng.uniform(-0.5, 0.5);
  }

  const BatchForwardTrace trace = batched.forward_batch(x, backend);
  batched.backward_batch(trace, grad, 0.05, backend);

  // Gradient accumulation at fixed weights for the reference: run each
  // sample's backward on a THROWAWAY copy of the original network and sum
  // the weight deltas.
  std::vector<Matrix> delta;
  for (int k = 0; k < reference.depth(); ++k) {
    delta.emplace_back(reference.weight(k).rows(), reference.weight(k).cols());
  }
  for (std::size_t b = 0; b < 4; ++b) {
    Rng rng_c(14);
    Mlp scratch({3, 5, 2}, Activation::kGstPhotonic, rng_c);
    const auto row = x.row(b);
    const ForwardTrace t =
        scratch.forward(Vector(row.begin(), row.end()), backend);
    const auto gr = grad.row(b);
    scratch.backward(t, Vector(gr.begin(), gr.end()), 0.05, backend);
    for (int k = 0; k < scratch.depth(); ++k) {
      const auto uk = static_cast<std::size_t>(k);
      for (std::size_t i = 0; i < delta[uk].size(); ++i) {
        delta[uk].data()[i] +=
            scratch.weight(k).data()[i] - reference.weight(k).data()[i];
      }
    }
  }
  for (int k = 0; k < reference.depth(); ++k) {
    const auto uk = static_cast<std::size_t>(k);
    for (std::size_t i = 0; i < delta[uk].size(); ++i) {
      EXPECT_NEAR(batched.weight(k).data()[i],
                  reference.weight(k).data()[i] + delta[uk].data()[i], 1e-12);
    }
  }
}

TEST(Mlp, BatchShapeValidation) {
  Rng rng(16);
  Mlp net({3, 4, 2}, Activation::kReLU, rng);
  FloatBackend backend;
  EXPECT_THROW((void)net.forward_batch(Matrix(2, 5), backend), Error);
  const BatchForwardTrace trace = net.forward_batch(Matrix(2, 3, 0.1), backend);
  EXPECT_THROW(net.backward_batch(trace, Matrix(3, 2, 0.1), 0.1, backend),
               Error);
  EXPECT_THROW(net.backward_batch(trace, Matrix(2, 3, 0.1), 0.1, backend),
               Error);
}

TEST(Activation, UnknownEnumeratorThrowsInsteadOfFallingThrough) {
  // The switch over Activation used to fall through to a silent default;
  // a corrupted or future enumerator must fail loudly.
  const auto bogus = static_cast<Activation>(99);
  EXPECT_THROW((void)apply_activation(bogus, 0.5), Error);
  EXPECT_THROW((void)activation_derivative(bogus, 0.5), Error);
}

}  // namespace
}  // namespace trident::nn
