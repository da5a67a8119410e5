#include "nn/dfa.hpp"

#include <cmath>

#include "common/error.hpp"

namespace trident::nn {

DfaFeedback::DfaFeedback(const Mlp& net, Rng& rng) {
  const auto& sizes = net.layer_sizes();
  TRIDENT_REQUIRE(sizes.size() >= 2, "network too shallow for DFA");
  const auto classes = static_cast<std::size_t>(sizes.back());
  feedback_.reserve(sizes.size() - 2);
  for (std::size_t k = 1; k + 1 < sizes.size(); ++k) {
    // B_k: hidden_size × classes, Xavier-ish scale over the class fan-in.
    Matrix b(static_cast<std::size_t>(sizes[k]), classes);
    const double limit =
        std::sqrt(6.0 / static_cast<double>(sizes[k] + sizes.back()));
    for (double& v : b.data()) {
      v = rng.uniform(-limit, limit);
    }
    feedback_.push_back(std::move(b));
  }
}

Vector DfaFeedback::project(int hidden_layer, const Vector& error) const {
  TRIDENT_REQUIRE(hidden_layer >= 0 && hidden_layer < hidden_layers(),
                  "hidden layer index out of range");
  return feedback_[static_cast<std::size_t>(hidden_layer)].matvec(error);
}

double dfa_step(Mlp& net, const DfaFeedback& feedback, const Vector& x,
                int label, double learning_rate, MatvecBackend& backend) {
  const ForwardTrace trace = net.forward(x, backend);
  const LossGrad lg = softmax_cross_entropy(trace.activations.back(), label);

  // Output layer: true gradient, as in [9].
  const auto last = static_cast<std::size_t>(net.depth() - 1);
  backend.update_batch(net.weight(static_cast<int>(last)), as_row(lg.grad),
                       as_row(trace.activations[last]), learning_rate);

  // Hidden layers: δh_k = (B_k e) ⊙ f'(h_k), no weight transport.
  for (int k = 0; k < net.depth() - 1; ++k) {
    Vector dh = feedback.project(k, lg.grad);
    const Vector& h = trace.logits[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < dh.size(); ++i) {
      dh[i] *= activation_derivative(net.hidden_activation(), h[i]);
    }
    backend.update_batch(net.weight(k), as_row(dh),
                         as_row(trace.activations[static_cast<std::size_t>(k)]),
                         learning_rate);
  }
  return lg.loss;
}

TrainResult fit_dfa(Mlp& net, Dataset data, const TrainConfig& config,
                    MatvecBackend& backend, Rng& feedback_rng) {
  TRIDENT_REQUIRE(config.epochs >= 1, "need at least one epoch");
  data.validate();
  TRIDENT_REQUIRE(data.features == net.layer_sizes().front() &&
                      data.classes == net.layer_sizes().back(),
                  "dataset does not match network shape");

  const DfaFeedback feedback(net, feedback_rng);
  Rng shuffle_rng(config.shuffle_seed);
  TrainResult result;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) {
      data.shuffle(shuffle_rng);
    }
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Vector logits =
          net.forward(data.inputs[i], backend).activations.back();
      if (argmax(logits) == static_cast<std::size_t>(data.labels[i])) {
        ++correct;
      }
      loss_sum += dfa_step(net, feedback, data.inputs[i], data.labels[i],
                           config.learning_rate, backend);
    }
    result.epoch_loss.push_back(loss_sum / static_cast<double>(data.size()));
    result.epoch_accuracy.push_back(static_cast<double>(correct) /
                                    static_cast<double>(data.size()));
  }
  return result;
}

CnnDfaFeedback::CnnDfaFeedback(const SmallCnn& net, Rng& rng) {
  const auto& cfg = net.config();
  const auto classes = static_cast<std::size_t>(cfg.classes);
  const auto conv1_elems = static_cast<std::size_t>(cfg.input_hw) *
                           static_cast<std::size_t>(cfg.input_hw) *
                           static_cast<std::size_t>(cfg.conv1_channels);
  const int hw2 = cfg.input_hw / 2;
  const auto conv2_elems = static_cast<std::size_t>(hw2) *
                           static_cast<std::size_t>(hw2) *
                           static_cast<std::size_t>(cfg.conv2_channels);
  auto fill = [&](Matrix& b, std::size_t rows) {
    b = Matrix(rows, classes);
    const double limit =
        std::sqrt(6.0 / static_cast<double>(rows + classes));
    for (double& v : b.data()) {
      v = rng.uniform(-limit, limit);
    }
  };
  fill(b1_, conv1_elems);
  fill(b2_, conv2_elems);
}

Vector CnnDfaFeedback::project_conv1(const Vector& error) const {
  return b1_.matvec(error);
}

Vector CnnDfaFeedback::project_conv2(const Vector& error) const {
  return b2_.matvec(error);
}

double dfa_cnn_step(SmallCnn& net, const CnnDfaFeedback& feedback,
                    const FeatureMap& image, int label, double learning_rate,
                    MatvecBackend& backend) {
  const SmallCnn::TraceState state = net.forward_trace(image, backend);
  const LossGrad lg = softmax_cross_entropy(state.logits, label);

  // Dense head: true gradient.
  backend.update_batch(net.fc(), as_row(lg.grad), as_row(state.pooled2.data),
                       learning_rate);

  const Activation act = net.config().activation;

  // Conv stage 2: error projected straight to its output map.
  const auto& pre2 = state.conv2_cache.pre_activation;
  FeatureMap grad2(pre2.height, pre2.width, pre2.channels);
  grad2.data = feedback.project_conv2(lg.grad);
  net.conv2().apply_gradient(state.conv2_cache, grad2, act, learning_rate,
                             backend);

  // Conv stage 1 likewise.
  const auto& pre1 = state.conv1_cache.pre_activation;
  FeatureMap grad1(pre1.height, pre1.width, pre1.channels);
  grad1.data = feedback.project_conv1(lg.grad);
  net.conv1().apply_gradient(state.conv1_cache, grad1, act, learning_rate,
                             backend);
  return lg.loss;
}

}  // namespace trident::nn
