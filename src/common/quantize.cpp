#include "common/quantize.hpp"

#include <type_traits>

#include "common/kernel_clones.hpp"

// Built with -ffp-contract=off -fno-trapping-math for the reasons given in
// core/stochastic_update.cpp: no clone fuses an FMA, the selects vectorize,
// and no result changes.

namespace trident {

namespace {

/// out[i] = x[i] / s on the grid (range, step): the level itself for an
/// int8 output, its value level·step for a double output.
template <typename Out>
TRIDENT_KERNEL_CLONES void scaled_levels(const double* __restrict x,
                                         std::size_t n, double s,
                                         double range, double step,
                                         Out* __restrict out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double level =
        nearest_level(std::clamp(x[i] / s, -range, range) / step);
    if constexpr (std::is_same_v<Out, double>) {
      out[i] = level * step;
    } else {
      out[i] = static_cast<Out>(level);
    }
  }
}

/// max(1, max|x|); std::max keeps its first argument against a NaN.
TRIDENT_KERNEL_CLONES double dac_scale_of(const double* __restrict x,
                                          std::size_t n) {
  double s = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    s = std::max(s, std::abs(x[i]));
  }
  return s;
}

template <typename Out>
void dac_block(std::span<const double> x, std::size_t cols,
               const SymmetricQuantizer& q, std::span<double> scale,
               std::span<Out> out) {
  TRIDENT_REQUIRE(cols > 0 && x.size() % cols == 0 &&
                      out.size() == x.size() && scale.size() >= x.size() / cols,
                  "DAC block shape mismatch");
  for (std::size_t b = 0; b * cols < x.size(); ++b) {
    const double* row = x.data() + b * cols;
    scale[b] = dac_scale_of(row, cols);
    scaled_levels(row, cols, scale[b], q.range(), q.step(),
                  out.data() + b * cols);
  }
}

}  // namespace

void dac_quantize(std::span<const double> x, std::size_t cols,
                  const SymmetricQuantizer& q, std::span<double> scale,
                  std::span<double> out) {
  dac_block(x, cols, q, scale, out);
}

void dac_quantize(std::span<const double> x, std::size_t cols,
                  const SymmetricQuantizer& q, std::span<double> scale,
                  std::span<std::int8_t> out) {
  TRIDENT_REQUIRE(q.bits() <= 8, "int8 levels require bits <= 8");
  dac_block(x, cols, q, scale, out);
}

void pack_levels(std::span<const double> w, const SymmetricQuantizer& q,
                 std::span<std::int8_t> out) {
  TRIDENT_REQUIRE(q.bits() <= 8, "int8 levels require bits <= 8");
  TRIDENT_REQUIRE(w.size() == out.size(), "DAC span size mismatch");
  scaled_levels(w.data(), w.size(), 1.0, q.range(), q.step(), out.data());
}

}  // namespace trident
