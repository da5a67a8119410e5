#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "photonics/constants.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::nn {

namespace {

/// Span name for one layer of a forward/backward pass
/// ("mlp/forward_batch/L2").  Only called when telemetry is enabled — the
/// string is never built on the disabled path.
[[nodiscard]] std::string layer_span_name(const char* pass, int layer) {
  return std::string("mlp/") + pass + "/L" + std::to_string(layer);
}

}  // namespace

Matrix FloatBackend::matmul(const Matrix& w, const Matrix& x) {
  return w.matmul(x);
}

Matrix FloatBackend::matmul_transposed(const Matrix& w, const Matrix& x) {
  return w.matmul_transposed(x);
}

void FloatBackend::update_batch(Matrix& w, const Matrix& dh,
                                const Matrix& y_prev, double lr) {
  w.add_outer_batch(dh, y_prev, -lr);
}

Mlp::Mlp(std::vector<int> layer_sizes, Activation hidden, Rng& rng)
    : sizes_(std::move(layer_sizes)), hidden_(hidden) {
  TRIDENT_REQUIRE(sizes_.size() >= 2, "MLP needs at least input and output");
  for (int s : sizes_) {
    TRIDENT_REQUIRE(s >= 1, "layer sizes must be positive");
  }
  weights_.reserve(sizes_.size() - 1);
  for (std::size_t k = 0; k + 1 < sizes_.size(); ++k) {
    weights_.push_back(Matrix::xavier(static_cast<std::size_t>(sizes_[k + 1]),
                                      static_cast<std::size_t>(sizes_[k]),
                                      rng));
  }
}

const Matrix& Mlp::weight(int k) const {
  TRIDENT_REQUIRE(k >= 0 && k < depth(), "layer index out of range");
  return weights_[static_cast<std::size_t>(k)];
}

Matrix& Mlp::weight(int k) {
  TRIDENT_REQUIRE(k >= 0 && k < depth(), "layer index out of range");
  return weights_[static_cast<std::size_t>(k)];
}

ForwardTrace Mlp::forward(const Vector& x, MatvecBackend& backend) const {
  BatchForwardTrace batch = forward_batch(as_row(x), backend);
  ForwardTrace trace;
  for (Matrix& y : batch.activations) {
    trace.activations.push_back(std::move(y.data()));
  }
  for (Matrix& h : batch.logits) {
    trace.logits.push_back(std::move(h.data()));
  }
  return trace;
}

BatchForwardTrace Mlp::forward_batch(const Matrix& x,
                                     MatvecBackend& backend) const {
  TRIDENT_REQUIRE(static_cast<int>(x.cols()) == sizes_.front(),
                  "input size mismatch");
  BatchForwardTrace trace;
  trace.activations.reserve(static_cast<std::size_t>(depth()) + 1);
  trace.logits.reserve(static_cast<std::size_t>(depth()));
  trace.activations.push_back(x);
  for (int k = 0; k < depth(); ++k) {
    std::optional<telemetry::Span> span;
    if (telemetry::enabled()) {
      span.emplace(layer_span_name("forward_batch", k), "nn");
    }
    trace.logits.push_back(backend.matmul(weights_[static_cast<std::size_t>(k)],
                                          trace.activations.back()));
    const Matrix& h = trace.logits.back();
    const bool is_output = (k == depth() - 1);
    const Activation act = is_output ? Activation::kIdentity : hidden_;
    Matrix y(h.rows(), h.cols());
    for (std::size_t i = 0; i < h.data().size(); ++i) {
      y.data()[i] = apply_activation(act, h.data()[i]);
    }
    trace.activations.push_back(std::move(y));
  }
  return trace;
}

void Mlp::backward(const ForwardTrace& trace, const Vector& output_grad,
                   double learning_rate, MatvecBackend& backend) {
  BatchForwardTrace batch;
  for (const Vector& y : trace.activations) {
    batch.activations.push_back(as_row(y));
  }
  for (const Vector& h : trace.logits) {
    batch.logits.push_back(as_row(h));
  }
  backward_batch(batch, as_row(output_grad), learning_rate, backend);
}

void Mlp::backward_batch(const BatchForwardTrace& trace,
                         const Matrix& output_grad, double learning_rate,
                         MatvecBackend& backend) {
  TRIDENT_REQUIRE(static_cast<int>(trace.logits.size()) == depth(),
                  "trace does not match network depth");
  TRIDENT_REQUIRE(output_grad.rows() == trace.batch() &&
                      output_grad.cols() == trace.logits.back().cols(),
                  "output gradient shape mismatch");

  Matrix dh = output_grad;
  for (int k = depth() - 1; k >= 0; --k) {
    std::optional<telemetry::Span> span;
    if (telemetry::enabled()) {
      span.emplace(layer_span_name("backward_batch", k), "nn");
    }
    const auto uk = static_cast<std::size_t>(k);

    // Whole-block propagation through the pre-update weights, then the
    // per-sample updates in batch order (minibatch semantics: every sample
    // of the block sees the same weights on the way down).
    Matrix upstream;
    if (k > 0) {
      upstream = backend.matmul_transposed(weights_[uk], dh);
      const Matrix& h_prev = trace.logits[uk - 1];
      for (std::size_t i = 0; i < upstream.data().size(); ++i) {
        upstream.data()[i] *=
            activation_derivative(hidden_, h_prev.data()[i]);
      }
    }

    backend.update_batch(weights_[uk], dh, trace.activations[uk],
                         learning_rate);
    dh = std::move(upstream);
  }
}

Vector Mlp::predict(const Vector& x) const {
  FloatBackend backend;
  return forward(x, backend).activations.back();
}

Vector softmax(const Vector& logits) {
  TRIDENT_REQUIRE(!logits.empty(), "softmax of empty vector");
  const double m = *std::max_element(logits.begin(), logits.end());
  Vector out(logits.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - m);
    denom += out[i];
  }
  for (double& v : out) {
    v /= denom;
  }
  return out;
}

LossGrad softmax_cross_entropy(const Vector& logits, int label) {
  TRIDENT_REQUIRE(label >= 0 && label < static_cast<int>(logits.size()),
                  "label out of range");
  LossGrad lg;
  lg.grad = softmax(logits);
  const auto ul = static_cast<std::size_t>(label);
  lg.loss = -std::log(std::max(lg.grad[ul], 1e-12));
  lg.grad[ul] -= 1.0;
  return lg;
}

}  // namespace trident::nn
