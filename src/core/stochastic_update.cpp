#include "core/stochastic_update.hpp"

#include <algorithm>
#include <cmath>

#include "common/kernel_clones.hpp"
#include "common/quantize.hpp"

// This file builds with -ffp-contract=off, so no clone fuses the update's
// multiply and subtract into an FMA the scalar loop never performed, and
// with -fno-trapping-math, without which GCC keeps the clamp and level
// selects as branches (a trapping compare may not be speculated) and the
// apply loop does not vectorize.  Neither flag changes a result: no FP
// exception is ever inspected, and NaN and signed-zero semantics stay IEEE.

namespace trident::core {

TRIDENT_KERNEL_CLONES
std::uint64_t nearest_round_update(double* __restrict w, std::size_t rows,
                                   std::size_t cols,
                                   const double* __restrict dh,
                                   const double* __restrict y, double lr,
                                   double step) {
  std::uint64_t changed = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    // Hoisted as in stochastic_round_update below.
    const double g = lr * dh[r];
    double* __restrict row = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const double old = row[c];
      const double unit = std::clamp(old - g * y[c], -1.0, 1.0);
      const double q = nearest_level(unit / step) * step;
      const bool moved = q != old;
      row[c] = moved ? q : old;
      changed += moved ? 1u : 0u;
    }
  }
  return changed;
}

void draw_canonical(std::mt19937_64& engine, std::span<double> u) {
  for (double& v : u) {
    v = canonical_from_bits(engine());
  }
}

TRIDENT_KERNEL_CLONES
std::uint64_t stochastic_round_update(double* __restrict w, std::size_t rows,
                                      std::size_t cols,
                                      const double* __restrict dh,
                                      const double* __restrict y, double lr,
                                      double step,
                                      const double* __restrict u) {
  std::uint64_t changed = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    // lr·dh[r]·y[c] parses as (lr·dh[r])·y[c], so hoisting the left factor
    // out of the column loop keeps every product's rounding.
    const double g = lr * dh[r];
    double* __restrict row = w + r * cols;
    const double* __restrict ur = u + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const double old = row[c];
      const double unit = std::clamp(old - g * y[c], -1.0, 1.0);
      const double scaled = unit / step;
      const double floor_level = std::floor(scaled);
      const double frac = scaled - floor_level;
      const double level = ur[c] < frac ? floor_level + 1.0 : floor_level;
      const double q = std::clamp(level * step, -1.0, 1.0);
      const bool moved = q != old;
      row[c] = moved ? q : old;
      changed += moved ? 1u : 0u;
    }
  }
  return changed;
}

}  // namespace trident::core
