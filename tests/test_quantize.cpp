// Quantizer tests, including the parameterized rounding-error property the
// photonic weight-storage argument rests on.
#include "common/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace trident {
namespace {

/// One sample through the block DAC kernel; returns its scale.
template <typename Out>
double dac_row(const std::vector<double>& x, const SymmetricQuantizer& q,
               std::vector<Out>& out) {
  double s = 0.0;
  dac_quantize(x, x.size(), q, std::span<double>(&s, 1), out);
  return s;
}

TEST(SymmetricQuantizer, EightBitMatchesGstLevels) {
  SymmetricQuantizer q(8);
  EXPECT_EQ(q.levels(), 255);  // 2^8 - 1 levels, zero representable
  EXPECT_EQ(q.bits(), 8);
  EXPECT_DOUBLE_EQ(q.step(), 1.0 / 127.0);
}

TEST(SymmetricQuantizer, ZeroIsExact) {
  for (int bits : {2, 4, 6, 8, 12}) {
    SymmetricQuantizer q(bits);
    EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0) << "bits=" << bits;
  }
}

TEST(SymmetricQuantizer, ExtremesAreExact) {
  SymmetricQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-1.0), -1.0);
}

TEST(SymmetricQuantizer, SaturatesOutOfRange) {
  SymmetricQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(3.5), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-2.0), -1.0);
}

TEST(SymmetricQuantizer, NanMapsToLevelZero) {
  SymmetricQuantizer q(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(q.to_level(nan), 0);
  EXPECT_EQ(q.to_level(-nan), 0);
  EXPECT_EQ(q.quantize(nan), 0.0);
  std::vector<std::int8_t> levels(2, 7);
  pack_levels(std::vector<double>{nan, 0.5}, q, levels);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], q.to_level(0.5));
}

TEST(SymmetricQuantizer, SymmetryProperty) {
  SymmetricQuantizer q(6);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-x), -q.quantize(x));
  }
}

TEST(SymmetricQuantizer, LevelRoundTrip) {
  SymmetricQuantizer q(8);
  std::vector<double> values;
  std::vector<std::int8_t> expected;
  for (int level = -127; level <= 127; ++level) {
    EXPECT_EQ(q.to_level(q.from_level(level)), level);
    values.push_back(q.from_level(level));
    expected.push_back(static_cast<std::int8_t>(level));
  }
  EXPECT_THROW((void)q.from_level(128), Error);
  // The int8 kernel maps every grid value back to its own level.
  std::vector<std::int8_t> levels(values.size());
  EXPECT_EQ(dac_row(values, q, levels), 1.0);
  EXPECT_EQ(levels, expected);
}

TEST(SymmetricQuantizer, VectorOverloads) {
  // The span kernel's double output is the scalar quantize per element
  // (the row's max |x| is below 1, so s = 1) and is idempotent.
  SymmetricQuantizer q(4);
  const std::vector<double> xs{0.11, -0.52, 0.93};
  std::vector<double> out(xs.size());
  EXPECT_EQ(dac_row(xs, q, out), 1.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], q.quantize(xs[i]));
  }
  std::vector<double> again(out.size());
  (void)dac_row(out, q, again);
  EXPECT_EQ(again, out);
}

TEST(SymmetricQuantizer, RejectsBadArguments) {
  EXPECT_THROW(SymmetricQuantizer(0), Error);
  EXPECT_THROW(SymmetricQuantizer(17), Error);
  EXPECT_THROW(SymmetricQuantizer(8, -1.0), Error);
}

TEST(UnsignedQuantizer, BasicLevels) {
  UnsignedQuantizer q(8);
  EXPECT_EQ(q.levels(), 255);
  EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-0.5), 0.0);  // clamps to non-negative
  EXPECT_DOUBLE_EQ(q.quantize(2.0), 1.0);
}

TEST(UnsignedQuantizer, NanMapsToLevelZero) {
  UnsignedQuantizer q(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(q.to_level(nan), 0);
  EXPECT_EQ(q.to_level(-nan), 0);
  EXPECT_EQ(q.quantize(nan), 0.0);
}

TEST(UnsignedQuantizer, LevelBounds) {
  UnsignedQuantizer q(4);
  EXPECT_THROW((void)q.from_level(-1), Error);
  EXPECT_THROW((void)q.from_level(q.levels() + 1), Error);
  EXPECT_DOUBLE_EQ(q.from_level(q.levels()), 1.0);
}

// --- parameterized property sweep -------------------------------------------

class QuantizerErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerErrorBound, RoundingErrorWithinHalfStep) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits);
  Rng rng(static_cast<std::uint64_t>(bits));
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    EXPECT_LE(std::abs(x - q.quantize(x)), q.max_rounding_error() + 1e-15)
        << "bits=" << bits << " x=" << x;
  }
}

TEST_P(QuantizerErrorBound, StepHalvesPerBit) {
  const int bits = GetParam();
  if (bits >= 16) {
    return;
  }
  SymmetricQuantizer coarse(bits), fine(bits + 1);
  EXPECT_LT(fine.step(), coarse.step());
  // One more bit halves the step asymptotically; the exact ratio is
  // (2^b - 1) / (2^(b-1) - 1), which only approaches 2 for wider grids.
  if (bits >= 6) {
    EXPECT_NEAR(coarse.step() / fine.step(), 2.0, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizerErrorBound,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 16));

// --- bulk level conversion through the DAC span kernel ----------------------

/// Grid values of every level of `q`, ascending.
std::vector<double> grid_values(const SymmetricQuantizer& q) {
  const int half = (q.levels() - 1) / 2;
  std::vector<double> values;
  for (int l = -half; l <= half; ++l) {
    values.push_back(q.from_level(l));
  }
  return values;
}

class BulkLevelConversion : public ::testing::TestWithParam<int> {};

TEST_P(BulkLevelConversion, GridPointsRoundTripExactly) {
  // Every representable value comes back as itself (double output) and as
  // its own level (int8 output, grids of ≤ 8 bits): the grid is closed
  // under a bulk round trip at every bit width.
  const int bits = GetParam();
  SymmetricQuantizer q(bits);
  const std::vector<double> values = grid_values(q);
  std::vector<double> back(values.size());
  EXPECT_EQ(dac_row(values, q, back), 1.0);
  EXPECT_EQ(back, values) << "bits=" << bits;
  if (bits <= 8) {
    std::vector<std::int8_t> levels(values.size());
    pack_levels(values, q, levels);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      EXPECT_EQ(q.from_level(levels[i]), values[i]) << "bits=" << bits;
    }
  }
}

TEST_P(BulkLevelConversion, SaturatesAtRangeAndRepresentsZero) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits, 0.75);
  const int half = (q.levels() - 1) / 2;
  // No entry exceeds |x| = 1, so s = 1 and the grid's own range saturates.
  const std::vector<double> xs{-1.0, -0.7500001, -0.75, 0.0, 0.75, 0.9};
  std::vector<double> values(xs.size());
  EXPECT_EQ(dac_row(xs, q, values), 1.0);
  EXPECT_EQ(values[0], -0.75) << "bits=" << bits;  // deep saturation
  EXPECT_EQ(values[1], -0.75);                     // just past the edge
  EXPECT_EQ(values[2], -0.75);                     // the edge itself
  EXPECT_EQ(values[3], 0.0);                       // zero exactly on-grid
  EXPECT_EQ(values[4], 0.75);
  EXPECT_EQ(values[5], 0.75);
  if (bits <= 8) {
    // Packing has no range scan, so far-out values saturate too.
    const std::vector<double> far{-100.0, -0.7500001, -0.75,
                                  0.0,    0.75,       3.0e8};
    std::vector<std::int8_t> levels(far.size());
    pack_levels(far, q, levels);
    const std::vector<std::int8_t> expected{
        static_cast<std::int8_t>(-half), static_cast<std::int8_t>(-half),
        static_cast<std::int8_t>(-half), 0,
        static_cast<std::int8_t>(half),  static_cast<std::int8_t>(half)};
    EXPECT_EQ(levels, expected) << "bits=" << bits;
  }
}

TEST_P(BulkLevelConversion, BulkAgreesWithScalarOnRandomInputs) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits, 1.25);
  Rng rng(0xb01c'0000u + static_cast<std::uint64_t>(bits));
  std::vector<double> xs(512);
  for (double& x : xs) {
    x = rng.uniform(-2.0, 2.0);  // includes values that set s > 1
  }
  std::vector<double> out(xs.size());
  const double s = dac_row(xs, q, out);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i], q.quantize(xs[i] / s)) << "i=" << i;
  }
  if (bits <= 8) {
    std::vector<std::int8_t> levels(xs.size());
    pack_levels(xs, q, levels);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(levels[i], q.to_level(xs[i])) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, BulkLevelConversion,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

TEST(BulkLevelConversion, Int8VariantMatchesWideVariantThroughEightBits) {
  // The int8 output holds exactly the levels whose values the double
  // output holds, row scale included.
  Rng rng(0xb01c'1111u);
  for (int bits = 2; bits <= 8; ++bits) {
    SymmetricQuantizer q(bits);
    std::vector<double> xs(256);
    for (double& x : xs) {
      x = rng.uniform(-1.5, 1.5);
    }
    std::vector<std::int8_t> narrow(xs.size());
    std::vector<double> wide(xs.size());
    const double s_narrow = dac_row(xs, q, narrow);
    const double s_wide = dac_row(xs, q, wide);
    EXPECT_EQ(s_narrow, s_wide);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(q.from_level(narrow[i]), wide[i]) << "bits=" << bits;
    }
  }
}

TEST(BulkLevelConversion, RejectsMismatchedSpansAndWideGridsOnInt8) {
  SymmetricQuantizer q8(8);
  std::vector<double> xs(4, 0.0);
  std::vector<double> small(3);
  EXPECT_THROW((void)dac_row(xs, q8, small), Error);
  std::vector<std::int8_t> small_bytes(3);
  EXPECT_THROW((void)dac_row(xs, q8, small_bytes), Error);
  EXPECT_THROW(pack_levels(xs, q8, small_bytes), Error);
  std::vector<double> one_scale(1);
  std::vector<double> out(4);
  EXPECT_THROW(dac_quantize(xs, 3, q8, one_scale, out), Error);  // 4 % 3
  EXPECT_THROW(dac_quantize(xs, 2, q8, one_scale, out), Error);  // 2 rows
  std::vector<std::int8_t> bytes(4);
  SymmetricQuantizer q9(9);  // 511 levels do not fit an int8
  EXPECT_THROW((void)dac_row(xs, q9, bytes), Error);
  EXPECT_THROW(pack_levels(xs, q9, bytes), Error);
}

// --- the DAC kernel against std::lround --------------------------------------
//
// The kernel and nearest_level replace std::lround with a branch-free
// round-half-away-from-zero.  These tests spell the old definition out and
// compare bit for bit, on whichever kernel clone this build dispatches to.

/// The reference the kernel must reproduce: the per-sample scale, then
/// double(std::lround(clamp(x / s, -1, 1) / step)) · step, NaN → level 0.
double reference_scale(const std::vector<double>& xs) {
  double s = 1.0;
  for (double v : xs) {
    s = std::max(s, std::abs(v));
  }
  return s;
}

long reference_level(double x, double s, double step) {
  const double v = x / s;
  return std::isnan(v) ? 0 : std::lround(std::clamp(v, -1.0, 1.0) / step);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Values that stress the rounding at one grid: exact ties (k + 0.5 steps,
/// where such a double exists), their nextafter neighbours, ±0,
/// subnormals, tiny negatives, ±1 and the level edges.
std::vector<double> edge_values(const SymmetricQuantizer& q) {
  const double step = q.step();
  const int half = (q.levels() - 1) / 2;
  std::vector<double> xs{0.0,     -0.0,    4.9e-324, -4.9e-324, 2.2e-308,
                         -2.2e-308, -1e-300, -1e-10,   -1e-3,     1e-3,
                         1.0,     -1.0,    std::nextafter(1.0, 0.0),
                         std::nextafter(-1.0, 0.0)};
  for (int k = -half - 1; k <= half; ++k) {
    // Find an x with x / step == k + 0.5 exactly, if the grid has one.
    const double tie = static_cast<double>(k) + 0.5;
    double x = tie * step;
    for (int tries = 0; tries < 4 && x / step != tie; ++tries) {
      x = std::nextafter(x, x / step < tie ? 2.0 : -2.0);
    }
    if (std::abs(x) > 1.0) {
      continue;
    }
    xs.push_back(x);
    xs.push_back(std::nextafter(x, 2.0));
    xs.push_back(std::nextafter(x, -2.0));
    const double on = static_cast<double>(k) * step;
    if (std::abs(on) <= 1.0) {
      xs.push_back(on);
      xs.push_back(std::nextafter(on, 2.0));
      xs.push_back(std::nextafter(on, -2.0));
    }
  }
  return xs;
}

/// Rows that drive the scale scan: the edge values alone (s = 1), with a
/// large value (s > 1), with NaN (ignored by the scan) and with ±inf
/// (s = inf: finite entries land on +0, the infinite ones on NaN → 0).
std::vector<std::vector<double>> edge_rows(const SymmetricQuantizer& q) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> base = edge_values(q);
  std::vector<std::vector<double>> rows{base};
  for (double extra : {3.7, -1e300, nan, -nan, inf, -inf}) {
    std::vector<double> row = base;
    row.insert(row.begin() + static_cast<std::ptrdiff_t>(row.size() / 2),
               extra);
    rows.push_back(row);
  }
  return rows;
}

TEST(DacKernel, NearestLevelMatchesLround) {
  const std::vector<double> specials{0.0,  -0.0,  0.5,  -0.5,  1.5,  -1.5,
                                     2.5,  -2.5,  0.49999999999999994,
                                     -0.49999999999999994, 4503599627370495.5,
                                     -4503599627370495.5,  4.9e-324,
                                     -4.9e-324, -1e-3, 1e15, -1e18};
  for (double v : specials) {
    EXPECT_TRUE(
        same_bits(nearest_level(v), static_cast<double>(std::lround(v))))
        << "v=" << v;
  }
  Rng rng(0x1e7e1);
  for (int i = 0; i < 200000; ++i) {
    // Magnitudes from 2^-8 to 2^40, halves of whole numbers included.
    const double mag =
        std::ldexp(1.0, static_cast<int>(rng.uniform(-8.0, 40.0)));
    double v = rng.uniform(-mag, mag);
    if (i % 4 == 0) {
      v = std::trunc(v) + 0.5;
    }
    if (i % 8 == 1) {
      v = std::nextafter(std::trunc(v) + 0.5, i % 16 == 1 ? 1e300 : -1e300);
    }
    ASSERT_TRUE(
        same_bits(nearest_level(v), static_cast<double>(std::lround(v))))
        << "v=" << v;
  }
  EXPECT_TRUE(same_bits(nearest_level(std::nan("")), 0.0));
  EXPECT_TRUE(same_bits(nearest_level(-std::nan("")), 0.0));
}

TEST(DacKernel, DoubleOutputMatchesLroundReferenceAtEveryWidth) {
  for (int bits = 1; bits <= 16; ++bits) {
    SCOPED_TRACE(bits);
    const SymmetricQuantizer q(bits);
    for (const std::vector<double>& row : edge_rows(q)) {
      std::vector<double> out(row.size());
      const double s = dac_row(row, q, out);
      ASSERT_TRUE(same_bits(s, reference_scale(row)));
      for (std::size_t i = 0; i < row.size(); ++i) {
        const double want =
            static_cast<double>(reference_level(row[i], s, q.step())) *
            q.step();
        ASSERT_TRUE(same_bits(out[i], want))
            << "x=" << row[i] << " s=" << s << " got " << out[i]
            << " want " << want;
      }
    }
  }
}

TEST(DacKernel, Int8OutputMatchesLroundReferenceAtEveryWidth) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int bits = 1; bits <= 8; ++bits) {
    SCOPED_TRACE(bits);
    const SymmetricQuantizer q(bits);
    for (const std::vector<double>& row : edge_rows(q)) {
      std::vector<std::int8_t> out(row.size());
      const double s = dac_row(row, q, out);
      ASSERT_TRUE(same_bits(s, reference_scale(row)));
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(out[i], reference_level(row[i], s, q.step()))
            << "x=" << row[i] << " s=" << s;
      }
    }
    // Packing (s = 1) sees out-of-range, infinite and NaN values directly.
    std::vector<double> far = edge_values(q);
    for (double extra : {1.5, -3.7, 1e300, -1e300, inf, -inf, std::nan("")}) {
      far.push_back(extra);
    }
    std::vector<std::int8_t> packed(far.size());
    pack_levels(far, q, packed);
    for (std::size_t i = 0; i < far.size(); ++i) {
      ASSERT_EQ(packed[i], reference_level(far[i], 1.0, q.step()))
          << "x=" << far[i];
    }
  }
}

TEST(DacKernel, ZeroLevelHasPositiveZeroBits) {
  // lround's 0 converts to +0.0; a tiny negative input must not leave a
  // -0.0 in the GEMM operand.
  const SymmetricQuantizer q(8);
  const std::vector<double> xs{-0.0, -1e-3, -4.9e-324, -0.003, 0.0};
  std::vector<double> out(xs.size());
  (void)dac_row(xs, q, out);
  for (double v : out) {
    EXPECT_TRUE(same_bits(v, 0.0)) << v;
  }
}

TEST(DacKernel, RandomRowsMatchReferenceAcrossVectorTails) {
  // Widths around the 2-, 4- and 8-lane vector bodies and their tails, with
  // the row's max and a NaN moved through every lane of the scale scan.
  Rng rng(0xdac0);
  const auto check = [](const SymmetricQuantizer& q,
                        const std::vector<double>& row) {
    std::vector<double> out(row.size());
    const double s = dac_row(row, q, out);
    ASSERT_TRUE(same_bits(s, reference_scale(row)));
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_TRUE(same_bits(
          out[i], static_cast<double>(reference_level(row[i], s, q.step())) *
                      q.step()))
          << "n=" << row.size() << " i=" << i;
    }
    if (q.bits() <= 8) {
      std::vector<std::int8_t> levels(row.size());
      ASSERT_TRUE(same_bits(dac_row(row, q, levels), s));
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(levels[i], reference_level(row[i], s, q.step()));
      }
    }
  };
  for (int bits : {1, 2, 6, 8, 12, 16}) {
    SCOPED_TRACE(bits);
    const SymmetricQuantizer q(bits);
    for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 129u}) {
      std::vector<double> row(n);
      for (double& v : row) {
        v = rng.uniform(-1.3, 1.3);
      }
      check(q, row);
      std::vector<double> block;
      for (std::size_t p = 0; p < n; ++p) {
        std::vector<double> moved = row;
        moved[p] = p % 2 == 0 ? 7.5 : -7.5;
        moved[(p + 1) % n] = std::numeric_limits<double>::quiet_NaN();
        check(q, moved);
        block.insert(block.end(), moved.begin(), moved.end());
      }
      // As one block, each sample keeps its own scale and levels.
      std::vector<double> scales(n);
      std::vector<double> out(block.size());
      dac_quantize(block, n, q, scales, out);
      for (std::size_t p = 0; p < n; ++p) {
        const std::vector<double> moved(block.data() + p * n,
                                        block.data() + (p + 1) * n);
        std::vector<double> alone(n);
        ASSERT_TRUE(same_bits(scales[p], dac_row(moved, q, alone)));
        ASSERT_EQ(0, std::memcmp(alone.data(), out.data() + p * n,
                                 n * sizeof(double)));
      }
    }
  }
}

// The training-resolution cliff in miniature: a 6-bit grid cannot represent
// updates an 8-bit grid can.
TEST(QuantizerProperty, SmallUpdatesVanishAtLowResolution) {
  SymmetricQuantizer q6(6), q8(8);
  // An update between the 8-bit half-step (0.0039) and the 6-bit half-step
  // (0.0161) survives on the fine grid but vanishes on the coarse one.
  const double update = 0.006;
  const double w6 = q6.quantize(0.5);
  EXPECT_DOUBLE_EQ(q6.quantize(w6 + update), w6) << "update lost at 6 bits";
  const double w8 = q8.quantize(0.5);
  EXPECT_NE(q8.quantize(w8 + update), w8) << "update survives at 8 bits";
}

}  // namespace
}  // namespace trident
