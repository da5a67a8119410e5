// Symmetric fixed-point quantization helpers.
//
// The paper's central device argument is about *bit resolution*: GST cells
// provide 255 distinguishable transmission levels (8-bit weights, enough for
// training per Wang et al. [34]); thermally tuned MRRs are limited to 6 bits
// by inter-channel crosstalk, which is *not* enough.  This module provides
// the shared symmetric quantizer used by both the photonic functional model
// (weight programming, signal modulation) and the 6-vs-8-bit training
// ablation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace trident {

/// A symmetric uniform quantizer over [-range, +range] with `bits` of
/// resolution: 2^bits - 1 levels, level 0 at the midpoint, zero exactly
/// representable.  With bits = 8 this matches the paper's 255-level GST cell.
class SymmetricQuantizer {
 public:
  SymmetricQuantizer(int bits, double range = 1.0) : bits_(bits), range_(range) {
    TRIDENT_REQUIRE(bits >= 1 && bits <= 16, "bit width must be in [1, 16]");
    TRIDENT_REQUIRE(range > 0.0, "quantizer range must be positive");
    // 2^bits - 1 levels → (levels - 1)/2 steps on each side of zero.
    levels_ = (1 << bits) - 1;
    half_steps_ = (levels_ - 1) / 2;
    step_ = range_ / static_cast<double>(half_steps_);
  }

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int levels() const { return levels_; }
  /// Quantization step between adjacent levels.
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] double range() const { return range_; }

  /// Signed level index in [-half_steps, +half_steps]; values outside
  /// [-range, range] saturate.  NaN maps to level 0: std::clamp passes NaN
  /// through and std::lround's result for it is unspecified, so the
  /// quantizer defines it rather than inherit whatever the platform does.
  /// (Detecting the NaN is the caller's job; this only keeps it defined.)
  [[nodiscard]] int to_level(double x) const {
    if (std::isnan(x)) {
      return 0;
    }
    const double clamped = std::clamp(x, -range_, range_);
    return static_cast<int>(std::lround(clamped / step_));
  }

  /// Reconstruction value of a level index.
  [[nodiscard]] double from_level(int level) const {
    TRIDENT_REQUIRE(std::abs(level) <= half_steps_, "level index out of range");
    return static_cast<double>(level) * step_;
  }

  /// Round-trip quantization of a single value.
  [[nodiscard]] double quantize(double x) const { return from_level(to_level(x)); }

  /// Quantize a whole vector in place.
  void quantize(std::span<double> xs) const {
    for (double& x : xs) {
      x = quantize(x);
    }
  }

  /// Quantize into a fresh vector.
  [[nodiscard]] std::vector<double> quantized(std::span<const double> xs) const {
    std::vector<double> out(xs.begin(), xs.end());
    quantize(out);
    return out;
  }

  // --- bulk level conversion (LUT builders, int8 panel packing) ----------
  //
  // The span overloads are the quantized tier's fast path: weight panels
  // and input blocks convert to level indices in one pass, and the int8
  // variants feed the integer GEMM kernels directly.

  /// out[i] = to_level(xs[i]).  Spans must have equal length.
  void to_levels(std::span<const double> xs, std::span<int> out) const {
    TRIDENT_REQUIRE(xs.size() == out.size(), "to_levels span size mismatch");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = to_level(xs[i]);
    }
  }

  /// Narrow variant for packed int8 panels; every level of a ≤ 8-bit grid
  /// fits the byte ([-127, 127] at 8 bits, so -128 never appears).
  void to_levels(std::span<const double> xs, std::span<std::int8_t> out) const {
    TRIDENT_REQUIRE(xs.size() == out.size(), "to_levels span size mismatch");
    TRIDENT_REQUIRE(bits_ <= 8, "int8 levels require bits <= 8");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = static_cast<std::int8_t>(to_level(xs[i]));
    }
  }

  /// out[i] = from_level(levels[i]).  Spans must have equal length.
  void from_levels(std::span<const int> levels, std::span<double> out) const {
    TRIDENT_REQUIRE(levels.size() == out.size(),
                    "from_levels span size mismatch");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      out[i] = from_level(levels[i]);
    }
  }

  void from_levels(std::span<const std::int8_t> levels,
                   std::span<double> out) const {
    TRIDENT_REQUIRE(levels.size() == out.size(),
                    "from_levels span size mismatch");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      out[i] = from_level(levels[i]);
    }
  }

  /// Worst-case absolute rounding error for in-range inputs (= step / 2).
  [[nodiscard]] double max_rounding_error() const { return step_ / 2.0; }

 private:
  int bits_;
  double range_;
  int levels_;
  int half_steps_;
  double step_;
};

/// Unsigned quantizer over [0, range]: `2^bits - 1` levels above zero.
/// Used for the optical signal amplitudes (light intensity is non-negative);
/// signed values are carried by the add-drop/balanced-photodetector pair.
class UnsignedQuantizer {
 public:
  UnsignedQuantizer(int bits, double range = 1.0) : bits_(bits), range_(range) {
    TRIDENT_REQUIRE(bits >= 1 && bits <= 16, "bit width must be in [1, 16]");
    TRIDENT_REQUIRE(range > 0.0, "quantizer range must be positive");
    levels_ = (1 << bits) - 1;
    step_ = range_ / static_cast<double>(levels_);
  }

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] double step() const { return step_; }

  /// Level index in [0, levels]; values outside [0, range] saturate and
  /// NaN maps to level 0 (see SymmetricQuantizer::to_level).
  [[nodiscard]] int to_level(double x) const {
    if (std::isnan(x)) {
      return 0;
    }
    const double clamped = std::clamp(x, 0.0, range_);
    return static_cast<int>(std::lround(clamped / step_));
  }
  [[nodiscard]] double from_level(int level) const {
    TRIDENT_REQUIRE(level >= 0 && level <= levels_, "level index out of range");
    return static_cast<double>(level) * step_;
  }
  [[nodiscard]] double quantize(double x) const { return from_level(to_level(x)); }

 private:
  int bits_;
  double range_;
  int levels_;
  double step_;
};

}  // namespace trident
