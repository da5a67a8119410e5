#include "nn/cnn.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::nn {

FeatureMap::FeatureMap(int h, int w, int c, double fill)
    : height(h),
      width(w),
      channels(c),
      data(static_cast<std::size_t>(h) * static_cast<std::size_t>(w) *
               static_cast<std::size_t>(c),
           fill) {
  TRIDENT_REQUIRE(h >= 1 && w >= 1 && c >= 1,
                  "feature map dimensions must be positive");
}

double& FeatureMap::at(int y, int x, int ch) {
  TRIDENT_ASSERT(y >= 0 && y < height && x >= 0 && x < width && ch >= 0 &&
                     ch < channels,
                 "feature map index out of range");
  return data[(static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
               static_cast<std::size_t>(x)) *
                  static_cast<std::size_t>(channels) +
              static_cast<std::size_t>(ch)];
}

double FeatureMap::at(int y, int x, int ch) const {
  return const_cast<FeatureMap*>(this)->at(y, x, ch);
}

void FeatureMap::validate() const {
  TRIDENT_REQUIRE(data.size() == static_cast<std::size_t>(height) *
                                     static_cast<std::size_t>(width) *
                                     static_cast<std::size_t>(channels),
                  "feature map storage does not match dimensions");
}

Conv2D::Conv2D(int in_c, int out_c, int kernel, int stride, int padding,
               Rng& rng)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weights_(Matrix::xavier(
          static_cast<std::size_t>(out_c),
          static_cast<std::size_t>(kernel) * static_cast<std::size_t>(kernel) *
              static_cast<std::size_t>(in_c),
          rng)) {
  TRIDENT_REQUIRE(in_c >= 1 && out_c >= 1, "channel counts must be positive");
  TRIDENT_REQUIRE(kernel >= 1 && stride >= 1 && padding >= 0,
                  "kernel geometry invalid");
}

int Conv2D::out_height(int in_h) const {
  return (in_h + 2 * padding_ - kernel_) / stride_ + 1;
}

int Conv2D::out_width(int in_w) const {
  return (in_w + 2 * padding_ - kernel_) / stride_ + 1;
}

void Conv2D::column_into(const FeatureMap& in, int oy, int ox,
                         std::span<double> col) const {
  std::size_t i = 0;
  for (int ky = 0; ky < kernel_; ++ky) {
    for (int kx = 0; kx < kernel_; ++kx) {
      const int y = oy * stride_ + ky - padding_;
      const int x = ox * stride_ + kx - padding_;
      for (int c = 0; c < in_c_; ++c, ++i) {
        col[i] = (y >= 0 && y < in.height && x >= 0 && x < in.width)
                     ? in.at(y, x, c)
                     : 0.0;
      }
    }
  }
}

std::pair<FeatureMap, Conv2D::Cache> Conv2D::forward(
    const FeatureMap& in, Activation activation,
    MatvecBackend& backend) const {
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("cnn/conv_forward", "nn");
  }
  in.validate();
  TRIDENT_REQUIRE(in.channels == in_c_, "input channel mismatch");
  const int oh = out_height(in.height);
  const int ow = out_width(in.width);
  TRIDENT_REQUIRE(oh >= 1 && ow >= 1, "convolution output is empty");

  FeatureMap out(oh, ow, out_c_);
  Cache cache;
  cache.input = in;
  cache.pre_activation = FeatureMap(oh, ow, out_c_);

  // Whole-layer im2col block, then one GEMM: the PE streams every spatial
  // position of the layer through the same weight bank (weight-stationary),
  // so a conv layer IS a batch of matvecs over one resident matrix.
  const std::size_t positions =
      static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
  cache.columns = Matrix(positions, weights_.cols());
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy) *
                                  static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
      column_into(in, oy, ox, cache.columns.row(pos));
    }
  }
  const Matrix h = backend.matmul(weights_, cache.columns);
  for (std::size_t pos = 0; pos < positions; ++pos) {
    const auto hr = h.row(pos);
    const int oy = static_cast<int>(pos) / ow;
    const int ox = static_cast<int>(pos) % ow;
    for (int oc = 0; oc < out_c_; ++oc) {
      const double hv = hr[static_cast<std::size_t>(oc)];
      cache.pre_activation.at(oy, ox, oc) = hv;
      out.at(oy, ox, oc) = apply_activation(activation, hv);
    }
  }
  return {std::move(out), std::move(cache)};
}

FeatureMap Conv2D::backward(const Cache& cache, const FeatureMap& grad_out,
                            Activation activation, double learning_rate,
                            MatvecBackend& backend) {
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("cnn/conv_backward", "nn");
  }
  const FeatureMap& in = cache.input;
  const int oh = grad_out.height;
  const int ow = grad_out.width;
  TRIDENT_REQUIRE(grad_out.channels == out_c_, "gradient channel mismatch");
  const std::size_t positions =
      static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
  TRIDENT_REQUIRE(cache.columns.rows() == positions,
                  "cache does not match gradient dimensions");

  // dL/dh at every position (chain through the activation derivative),
  // packed as one (positions × out_c) block.
  Matrix dh(positions, static_cast<std::size_t>(out_c_));
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy) *
                                  static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
      auto dr = dh.row(pos);
      for (int oc = 0; oc < out_c_; ++oc) {
        dr[static_cast<std::size_t>(oc)] =
            grad_out.at(oy, ox, oc) *
            activation_derivative(activation,
                                  cache.pre_activation.at(oy, ox, oc));
      }
    }
  }

  // Input gradient first (uses the pre-update weights, matching standard
  // backprop semantics): one transposed GEMM over every position, then the
  // per-window scatter back into the input map.
  const Matrix col_grads = backend.matmul_transposed(weights_, dh);
  FeatureMap grad_in(in.height, in.width, in_c_);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy) *
                                  static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
      const auto col_grad = col_grads.row(pos);
      std::size_t i = 0;
      for (int ky = 0; ky < kernel_; ++ky) {
        for (int kx = 0; kx < kernel_; ++kx) {
          const int y = oy * stride_ + ky - padding_;
          const int x = ox * stride_ + kx - padding_;
          for (int c = 0; c < in_c_; ++c, ++i) {
            if (y >= 0 && y < in.height && x >= 0 && x < in.width) {
              grad_in.at(y, x, c) += col_grad[i];
            }
          }
        }
      }
    }
  }

  // Weight update: the conv weight gradient is the sum over positions;
  // update_batch applies the outer products sequentially in spatial order,
  // which is the in-situ hardware's behaviour.
  backend.update_batch(weights_, dh, cache.columns, learning_rate);
  return grad_in;
}

void Conv2D::apply_gradient(const Cache& cache, const FeatureMap& grad_out,
                            Activation activation, double learning_rate,
                            MatvecBackend& backend) {
  const int oh = grad_out.height;
  const int ow = grad_out.width;
  TRIDENT_REQUIRE(grad_out.channels == out_c_, "gradient channel mismatch");
  const std::size_t positions =
      static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
  TRIDENT_REQUIRE(cache.columns.rows() == positions,
                  "cache does not match gradient dimensions");
  Matrix dh(positions, static_cast<std::size_t>(out_c_));
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy) *
                                  static_cast<std::size_t>(ow) +
                              static_cast<std::size_t>(ox);
      auto dr = dh.row(pos);
      for (int oc = 0; oc < out_c_; ++oc) {
        dr[static_cast<std::size_t>(oc)] =
            grad_out.at(oy, ox, oc) *
            activation_derivative(activation,
                                  cache.pre_activation.at(oy, ox, oc));
      }
    }
  }
  backend.update_batch(weights_, dh, cache.columns, learning_rate);
}

MaxPool2D::MaxPool2D(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  TRIDENT_REQUIRE(kernel >= 1 && stride >= 1, "pool geometry invalid");
}

std::pair<FeatureMap, MaxPool2D::Cache> MaxPool2D::forward(
    const FeatureMap& in) const {
  in.validate();
  const int oh = (in.height - kernel_) / stride_ + 1;
  const int ow = (in.width - kernel_) / stride_ + 1;
  TRIDENT_REQUIRE(oh >= 1 && ow >= 1, "pool output is empty");

  FeatureMap out(oh, ow, in.channels);
  Cache cache;
  cache.in_h = in.height;
  cache.in_w = in.width;
  cache.channels = in.channels;
  cache.argmax.resize(out.size());

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int c = 0; c < in.channels; ++c) {
        double best = -1e300;
        std::size_t best_idx = 0;
        for (int ky = 0; ky < kernel_; ++ky) {
          for (int kx = 0; kx < kernel_; ++kx) {
            const int y = oy * stride_ + ky;
            const int x = ox * stride_ + kx;
            const double v = in.at(y, x, c);
            if (v > best) {
              best = v;
              best_idx =
                  (static_cast<std::size_t>(y) *
                       static_cast<std::size_t>(in.width) +
                   static_cast<std::size_t>(x)) *
                      static_cast<std::size_t>(in.channels) +
                  static_cast<std::size_t>(c);
            }
          }
        }
        out.at(oy, ox, c) = best;
        cache.argmax[(static_cast<std::size_t>(oy) *
                          static_cast<std::size_t>(ow) +
                      static_cast<std::size_t>(ox)) *
                         static_cast<std::size_t>(in.channels) +
                     static_cast<std::size_t>(c)] = best_idx;
      }
    }
  }
  return {std::move(out), std::move(cache)};
}

FeatureMap MaxPool2D::backward(const Cache& cache,
                               const FeatureMap& grad_out) const {
  TRIDENT_REQUIRE(cache.argmax.size() == grad_out.size(),
                  "pool cache does not match gradient");
  FeatureMap grad_in(cache.in_h, cache.in_w, cache.channels);
  for (std::size_t i = 0; i < grad_out.data.size(); ++i) {
    grad_in.data[cache.argmax[i]] += grad_out.data[i];
  }
  return grad_in;
}

SmallCnn::SmallCnn(const Config& config, Rng& rng)
    : config_(config),
      conv1_(config.input_channels, config.conv1_channels, 3, 1, 1, rng),
      pool1_(2, 2),
      conv2_(config.conv1_channels, config.conv2_channels, 3, 1, 1, rng),
      pool2_(2, 2),
      flat_features_(0) {
  TRIDENT_REQUIRE(config.input_hw % 4 == 0,
                  "input size must survive two 2x2 pools");
  const int after = config.input_hw / 4;
  flat_features_ = after * after * config.conv2_channels;
  fc_ = Matrix::xavier(static_cast<std::size_t>(config.classes),
                       static_cast<std::size_t>(flat_features_), rng);
}

Vector SmallCnn::predict(const FeatureMap& image,
                         MatvecBackend& backend) const {
  auto [a1, c1] = conv1_.forward(image, config_.activation, backend);
  auto [p1, pc1] = pool1_.forward(a1);
  auto [a2, c2] = conv2_.forward(p1, config_.activation, backend);
  auto [p2, pc2] = pool2_.forward(a2);
  return std::move(backend.matmul(fc_, as_row(p2.data)).data());
}

double SmallCnn::train_step(const FeatureMap& image, int label,
                            double learning_rate, MatvecBackend& backend) {
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("cnn/train_step", "train");
  }
  auto [a1, c1] = conv1_.forward(image, config_.activation, backend);
  auto [p1, pc1] = pool1_.forward(a1);
  auto [a2, c2] = conv2_.forward(p1, config_.activation, backend);
  auto [p2, pc2] = pool2_.forward(a2);
  const Matrix flat = as_row(p2.data);
  const Matrix logits = backend.matmul(fc_, flat);

  const LossGrad lg = softmax_cross_entropy(logits.data(), label);

  // Dense layer: propagate first, then update (Eqs. 2-3 ordering).
  const Matrix grad = as_row(lg.grad);
  Matrix grad_flat = backend.matmul_transposed(fc_, grad);
  backend.update_batch(fc_, grad, flat, learning_rate);

  FeatureMap grad_p2(p2.height, p2.width, p2.channels);
  grad_p2.data = std::move(grad_flat.data());
  const FeatureMap grad_a2 = pool2_.backward(pc2, grad_p2);
  const FeatureMap grad_p1 = conv2_.backward(c2, grad_a2, config_.activation,
                                             learning_rate, backend);
  const FeatureMap grad_a1 = pool1_.backward(pc1, grad_p1);
  (void)conv1_.backward(c1, grad_a1, config_.activation, learning_rate,
                        backend);
  return lg.loss;
}

SmallCnn::TraceState SmallCnn::forward_trace(const FeatureMap& image,
                                             MatvecBackend& backend) const {
  TraceState state;
  auto [a1, c1] = conv1_.forward(image, config_.activation, backend);
  state.conv1_cache = std::move(c1);
  auto [p1, pc1] = pool1_.forward(a1);
  state.pool1_cache = std::move(pc1);
  auto [a2, c2] = conv2_.forward(p1, config_.activation, backend);
  state.conv2_cache = std::move(c2);
  auto [p2, pc2] = pool2_.forward(a2);
  state.pool2_cache = std::move(pc2);
  state.logits = std::move(backend.matmul(fc_, as_row(p2.data)).data());
  state.pooled2 = std::move(p2);
  return state;
}

double SmallCnn::evaluate(const std::vector<FeatureMap>& images,
                          const std::vector<int>& labels,
                          MatvecBackend& backend) const {
  TRIDENT_REQUIRE(images.size() == labels.size() && !images.empty(),
                  "evaluation set malformed");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Vector logits = predict(images[i], backend);
    if (argmax(logits) == static_cast<std::size_t>(labels[i])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

ImageDataset striped_images(int samples, int classes, int hw, double noise,
                            Rng& rng) {
  TRIDENT_REQUIRE(samples >= 1 && classes >= 2 && classes <= 4,
                  "striped_images supports 2-4 orientation classes");
  TRIDENT_REQUIRE(hw >= 4 && noise >= 0.0, "image parameters invalid");
  ImageDataset d;
  d.classes = classes;
  for (int i = 0; i < samples; ++i) {
    const int label = i % classes;
    FeatureMap img(hw, hw, 1);
    for (int y = 0; y < hw; ++y) {
      for (int x = 0; x < hw; ++x) {
        int phase = 0;
        switch (label) {
          case 0: phase = y; break;          // horizontal stripes
          case 1: phase = x; break;          // vertical stripes
          case 2: phase = x + y; break;      // diagonal
          default: phase = x - y + hw; break;  // anti-diagonal
        }
        double v = (phase % 3 == 0) ? 1.0 : 0.0;
        v += rng.normal(0.0, noise);
        img.at(y, x, 0) = std::clamp(v, 0.0, 1.0);
      }
    }
    d.images.push_back(std::move(img));
    d.labels.push_back(label);
  }
  return d;
}

ImageDataset shape_images(int samples, int hw, double noise, Rng& rng) {
  TRIDENT_REQUIRE(samples >= 1 && hw >= 8 && noise >= 0.0,
                  "shape_images parameters invalid");
  const auto motif = [](int cls, int y, int x) -> bool {
    switch (cls) {
      case 0:
        return y == 2 || x == 2;  // cross
      case 1:
        return y == 0 || y == 4 || x == 0 || x == 4;  // hollow square
      default:
        return y == x;  // diagonal
    }
  };
  ImageDataset d;
  d.classes = 3;
  for (int i = 0; i < samples; ++i) {
    const int label = i % 3;
    FeatureMap img(hw, hw, 1);
    for (double& v : img.data) {
      v = std::clamp(rng.normal(0.0, noise), 0.0, 1.0);
    }
    const int oy = static_cast<int>(rng.uniform_int(0, hw - 5));
    const int ox = static_cast<int>(rng.uniform_int(0, hw - 5));
    for (int y = 0; y < 5; ++y) {
      for (int x = 0; x < 5; ++x) {
        if (motif(label, y, x)) {
          img.at(oy + y, ox + x, 0) =
              std::clamp(1.0 + rng.normal(0.0, noise), 0.0, 1.0);
        }
      }
    }
    d.images.push_back(std::move(img));
    d.labels.push_back(label);
  }
  return d;
}

}  // namespace trident::nn
