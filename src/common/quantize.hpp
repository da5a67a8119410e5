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

#include "common/error.hpp"

namespace trident {

/// The nearest whole number to `v`, ties away from zero: lround(v) as a
/// double, bit for bit, but branch free so span loops vectorize (`v - t` is
/// exact, so ties are seen exactly).  Level zero is +0.0, as lround's
/// integer converts back: the +0.0 "no carry" clears trunc's -0.0.  NaN,
/// for which lround is unspecified, maps to level 0.
[[nodiscard]] inline double nearest_level(double v) {
  const double t = std::trunc(v);
  const double carry = std::abs(v - t) >= 0.5 ? std::copysign(1.0, v) : 0.0;
  return v == v ? t + carry : 0.0;
}

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
  /// [-range, range] saturate and NaN maps to level 0 (see nearest_level).
  /// (Detecting the NaN is the caller's job; this only keeps it defined.)
  [[nodiscard]] int to_level(double x) const {
    return static_cast<int>(
        nearest_level(std::clamp(x, -range_, range_) / step_));
  }

  /// Reconstruction value of a level index.
  [[nodiscard]] double from_level(int level) const {
    TRIDENT_REQUIRE(std::abs(level) <= half_steps_, "level index out of range");
    return static_cast<double>(level) * step_;
  }

  /// Round-trip quantization of a single value.
  [[nodiscard]] double quantize(double x) const { return from_level(to_level(x)); }

  /// Worst-case absolute rounding error for in-range inputs (= step / 2).
  [[nodiscard]] double max_rounding_error() const { return step_ / 2.0; }

 private:
  int bits_;
  double range_;
  int levels_;
  int half_steps_;
  double step_;
};

/// Input DAC over a row-major block of samples, `cols` values each (the
/// multiversioned kernel in common/quantize.cpp).  Per sample b,
/// s = max(1, max|x_b|) goes to scale[b] (a NaN does not raise s, as in
/// std::max(s, |v|)) and out[i] = nearest_level(clamp(x[i] / s, -range,
/// range) / step) · step, i.e. q.quantize(x[i] / s) bit for bit: both
/// divides are kept, since x·(1/s) differs from x / s in the last bit.
/// `out` is x's size; `scale` has at least x.size() / cols entries.
void dac_quantize(std::span<const double> x, std::size_t cols,
                  const SymmetricQuantizer& q, std::span<double> scale,
                  std::span<double> out);

/// The same pass with the level indices out, for the int8 GEMM; the grid
/// must have at most 8 bits ([-127, 127], so -128 never appears).
void dac_quantize(std::span<const double> x, std::size_t cols,
                  const SymmetricQuantizer& q, std::span<double> scale,
                  std::span<std::int8_t> out);

/// Levels of values already at unit scale (s = 1, no scan): the int8
/// weight-panel packing.  Out-of-range weights saturate.
void pack_levels(std::span<const double> w, const SymmetricQuantizer& q,
                 std::span<std::int8_t> out);

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
  /// NaN maps to level 0 (see nearest_level).
  [[nodiscard]] int to_level(double x) const {
    return static_cast<int>(nearest_level(std::clamp(x, 0.0, range_) / step_));
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
