// Functional convolutional layers over a MatvecBackend.
//
// The analytical side of this project only needs layer *shapes*; this
// module executes small CNNs for real, with every linear operation routed
// through a MatvecBackend — so the same network runs on exact float
// arithmetic or on the quantized/noisy photonic model, forward and
// backward.  Convolution is expressed as im2col columns hitting the
// backend's matmul, which is exactly how the Trident PE sees a conv layer
// (§IV: weight-stationary, one column per spatial position).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::nn {

/// A HxWxC feature map, channel-fastest row-major storage.
struct FeatureMap {
  int height = 0;
  int width = 0;
  int channels = 0;
  Vector data;

  FeatureMap() = default;
  FeatureMap(int h, int w, int c, double fill = 0.0);

  [[nodiscard]] double& at(int y, int x, int ch);
  [[nodiscard]] double at(int y, int x, int ch) const;
  [[nodiscard]] std::size_t size() const { return data.size(); }
  void validate() const;
};

/// 2-D convolution with square kernels; weights live in a Matrix of shape
/// (out_c × k·k·in_c) so the backend treats it like any PE weight bank.
class Conv2D {
 public:
  Conv2D(int in_c, int out_c, int kernel, int stride, int padding, Rng& rng);

  [[nodiscard]] int out_height(int in_h) const;
  [[nodiscard]] int out_width(int in_w) const;
  [[nodiscard]] const Matrix& weights() const { return weights_; }
  [[nodiscard]] Matrix& weights() { return weights_; }

  struct Cache {
    FeatureMap input;          ///< needed for the weight gradient
    Matrix columns;            ///< im2col block: one column per row, spatial order
    FeatureMap pre_activation; ///< h before the non-linearity
  };

  /// Forward pass: returns the activated output map and the cache the
  /// backward pass needs.  `activation` applies element-wise.
  [[nodiscard]] std::pair<FeatureMap, Cache> forward(
      const FeatureMap& in, Activation activation,
      MatvecBackend& backend) const;

  /// Backward pass: consumes dL/d(output activations), applies the SGD
  /// update through `backend`, and returns dL/d(input).
  [[nodiscard]] FeatureMap backward(const Cache& cache,
                                    const FeatureMap& grad_out,
                                    Activation activation,
                                    double learning_rate,
                                    MatvecBackend& backend);

  /// Update-only variant (no input gradient): used by training rules like
  /// DFA that obtain this layer's error signal from a feedback path
  /// instead of the downstream layers.
  void apply_gradient(const Cache& cache, const FeatureMap& grad_out,
                      Activation activation, double learning_rate,
                      MatvecBackend& backend);

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel() const { return kernel_; }

 private:
  /// Fills `col` (kernel²·in_c doubles) with the im2col column for output
  /// position (oy, ox); zero-padding is written explicitly.
  void column_into(const FeatureMap& in, int oy, int ox,
                   std::span<double> col) const;

  int in_c_;
  int out_c_;
  int kernel_;
  int stride_;
  int padding_;
  Matrix weights_;
};

/// 2×2 (or k×k) max pooling.
class MaxPool2D {
 public:
  explicit MaxPool2D(int kernel = 2, int stride = 2);

  struct Cache {
    int in_h = 0;
    int in_w = 0;
    int channels = 0;
    std::vector<std::size_t> argmax;  ///< winning input index per output
  };

  [[nodiscard]] std::pair<FeatureMap, Cache> forward(
      const FeatureMap& in) const;
  [[nodiscard]] FeatureMap backward(const Cache& cache,
                                    const FeatureMap& grad_out) const;

 private:
  int kernel_;
  int stride_;
};

/// A small conv-pool-conv-pool-dense classifier for functional studies:
/// every forward, gradient and weight update goes through the supplied
/// backend (the dense head as one-row batches), so the whole CNN can train
/// in-situ on the photonic model.
class SmallCnn {
 public:
  struct Config {
    int input_hw = 12;
    int input_channels = 1;
    int conv1_channels = 6;
    int conv2_channels = 12;
    int classes = 3;
    Activation activation = Activation::kGstPhotonic;
  };

  SmallCnn(const Config& config, Rng& rng);

  [[nodiscard]] const Config& config() const { return config_; }

  /// Logits for one image.
  [[nodiscard]] Vector predict(const FeatureMap& image,
                               MatvecBackend& backend) const;

  /// One SGD step on (image, label); returns the loss.
  double train_step(const FeatureMap& image, int label, double learning_rate,
                    MatvecBackend& backend);

  /// Accuracy over a set of images.
  [[nodiscard]] double evaluate(const std::vector<FeatureMap>& images,
                                const std::vector<int>& labels,
                                MatvecBackend& backend) const;

  /// Full forward state (activations, caches, logits) for training rules
  /// implemented outside the class (e.g. DFA in nn/dfa.hpp).
  struct TraceState {
    Conv2D::Cache conv1_cache;
    MaxPool2D::Cache pool1_cache;
    Conv2D::Cache conv2_cache;
    MaxPool2D::Cache pool2_cache;
    FeatureMap pooled2;  ///< the flattened dense-head input
    Vector logits;
  };
  [[nodiscard]] TraceState forward_trace(const FeatureMap& image,
                                         MatvecBackend& backend) const;

  [[nodiscard]] Conv2D& conv1() { return conv1_; }
  [[nodiscard]] Conv2D& conv2() { return conv2_; }
  [[nodiscard]] Matrix& fc() { return fc_; }
  [[nodiscard]] int flat_features() const { return flat_features_; }

 private:
  Config config_;
  Conv2D conv1_;
  MaxPool2D pool1_;
  Conv2D conv2_;
  MaxPool2D pool2_;
  Matrix fc_;  ///< (classes × flattened features)
  int flat_features_;
};

/// Synthetic image task: `classes` structured patterns (stripes at
/// class-specific orientations) with additive pixel noise — a stand-in for
/// small-image classification that needs convolutional features.
struct ImageDataset {
  std::vector<FeatureMap> images;
  std::vector<int> labels;
  int classes = 0;
  [[nodiscard]] std::size_t size() const { return images.size(); }
};

[[nodiscard]] ImageDataset striped_images(int samples, int classes, int hw,
                                          double noise, Rng& rng);

/// Translation-invariant image task: one of three 5×5 motifs (cross,
/// hollow square, diagonal) placed at a RANDOM position in each image.
/// Unlike the stripes, this task genuinely requires learned convolutional
/// features — a dense head over random conv features cannot solve it —
/// which is what makes it the right probe for conv-training rules (the
/// backprop-vs-DFA comparison of §VI / [35]).
[[nodiscard]] ImageDataset shape_images(int samples, int hw, double noise,
                                        Rng& rng);

}  // namespace trident::nn
