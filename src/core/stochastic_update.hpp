// In-situ weight updates, one sample at a time.  With stochastic rounding
// the update runs as two passes per sample:
// draw_canonical fills one uniform per cell from the backend's mt19937_64,
// then stochastic_round_update applies the rank-1 step and picks each
// cell's level.  Together they are bit-identical to a per-cell loop of
// `rng.bernoulli(frac) ? floor + 1 : floor`: same stored bits, same
// changed-cell count, same engine state afterwards.  The caller draws for
// one sample at a time (never ahead), so a checkpoint's rng_state() still
// replays the run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace trident::core {

/// One sample's deterministic in-situ update of the row-major
/// (rows × cols) weight matrix `w`, in place: each cell whose nearest level
/// q = nearest_level(clamp(w[r,c] - (lr·dh[r])·y[c], -1, 1) / step)·step
/// (SymmetricQuantizer::quantize of the clamped target) differs from it
/// stores q.  Returns the number of cells stored (GST write pulses).
std::uint64_t nearest_round_update(double* w, std::size_t rows,
                                   std::size_t cols, const double* dh,
                                   const double* y, double lr, double step);

/// The uniform draw std::generate_canonical<double, 53> makes from one
/// 64-bit engine output x: double(x)·2⁻⁶⁴, clamped to the largest double
/// below 1 (x ≥ 2⁶⁴ - 2¹⁰ rounds to 2⁶⁴).  Both 32-bit halves convert
/// exactly and the add rounds once, so this is double(x) rounded to
/// nearest, without the baseline ISA's branchy unsigned 64-bit convert.
[[nodiscard]] constexpr double canonical_from_bits(std::uint64_t x) {
  const double d = static_cast<double>(x >> 32) * 0x1p32 +
                   static_cast<double>(x & 0xffffffffu);
  return std::min(d * 0x1p-64, 1.0 - 0x1p-53);
}

/// Fills `u` with canonical_from_bits of successive engine outputs, so
/// `u[i] < p` is std::bernoulli_distribution(p)'s decision for the same
/// engine state, and the engine advances by u.size().
void draw_canonical(std::mt19937_64& engine, std::span<double> u);

/// One sample's stochastically rounded in-situ update of the row-major
/// (rows × cols) weight matrix `w`, in place:
///
///   target = clamp(w[r,c] - (lr·dh[r])·y[c], -1, 1)
///   scaled = target / step,  frac = scaled - floor(scaled)
///   level  = floor(scaled) + (u[r·cols + c] < frac ? 1 : 0)
///   q      = clamp(level·step, -1, 1)
///
/// A cell whose q compares equal to its old value keeps its old bits
/// (so -0.0 stays -0.0); every other cell stores q, which is NaN for a NaN
/// target.  Returns the number of cells stored (the GST write pulses).
std::uint64_t stochastic_round_update(double* w, std::size_t rows,
                                      std::size_t cols, const double* dh,
                                      const double* y, double lr, double step,
                                      const double* u);

}  // namespace trident::core
