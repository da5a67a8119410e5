#include "nn/matrix.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <string>

#include "common/kernel_clones.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::nn {

// The batched kernels below carry function multiversioning
// (TRIDENT_KERNEL_CLONES, common/kernel_clones.hpp): the loops are compiled
// once per ISA and the best clone is picked at load time.  Together with
// -ffp-contract=off (set on this file by CMake) every clone performs the
// identical sequence of IEEE multiplies and adds — vector width changes
// which lanes run together, never what any one sample's accumulation chain
// computes.  Builds without the clones (TSan, -DTRIDENT_SIMD=OFF) run the
// same maths at the baseline width.

// GNU vector extension: an 8-lane double vector compiled down to whatever
// the enclosing clone's ISA provides (one zmm op on AVX-512, four SSE2 ops
// on baseline).  Lanes are independent multiply-then-add — lowering width
// never changes any lane's result.
#if defined(__GNUC__) || defined(__clang__)
#define TRIDENT_HAVE_VECTOR_EXT 1
using v8df = double __attribute__((vector_size(64), aligned(64)));
#endif

namespace {

/// Samples per wide microkernel panel: one independent accumulation chain
/// per sample lets the compiler vectorise across the batch without
/// reassociating any single sample's sum (strict FP semantics).  16 chains
/// fill the FP-add pipeline (two 8-wide vectors in flight) on AVX-512.
constexpr std::size_t kBatchBlock = 16;
/// Half-width panel for mid-sized tails (8 ≤ tail < 16 samples).
constexpr std::size_t kBatchBlockSmall = 8;
/// Fan-in block: a kColBlock × kBatchBlock panel is 32 KiB — stays in L1
/// while every weight row of the block streams over it.
constexpr std::size_t kColBlock = 256;

/// Grain for parallel_for so tiny batched calls run inline: target roughly
/// 256k multiply-adds per dispatched task.
[[nodiscard]] std::size_t grain_for(std::size_t flops_per_index) {
  constexpr std::size_t kTargetFlops = 262144;
  return std::max<std::size_t>(
      1, kTargetFlops / std::max<std::size_t>(1, flops_per_index));
}

/// Computes output rows [b0, b0+MB) of y = x·Wᵀ.  Samples are packed into a
/// column-major panel so the inner loop is a stride-1 multiply-add across
/// the MB independent chains; each sample still accumulates in strict
/// column order.  always_inline so the body vectorises at the ISA of the
/// TRIDENT_KERNEL_CLONES wrapper it is inlined into.
template <std::size_t MB>
[[gnu::always_inline]] inline void matmul_panel(const double* wdata,
                                                std::size_t rows,
                                                std::size_t cols,
                                                const double* xdata,
                                                double* ydata,
                                                std::size_t b0) {
#ifdef TRIDENT_HAVE_VECTOR_EXT
  // Explicit 8-lane vectors keep the compiler from vectorising the fan-in
  // loop instead (which would need in-order reductions and serialise every
  // add).  Each lane is one sample's chain, accumulated in strict column
  // order — exactly the scalar kernel's arithmetic.
  static_assert(MB % 8 == 0);
  constexpr std::size_t kNV = MB / 8;
  v8df panel[kColBlock * kNV];
  double* const pd = reinterpret_cast<double*>(panel);
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t kc = std::min(kColBlock, cols - c0);
    for (std::size_t m = 0; m < MB; ++m) {
      const double* xr = xdata + (b0 + m) * cols + c0;
      for (std::size_t c = 0; c < kc; ++c) {
        pd[c * MB + m] = xr[c];
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* w = wdata + r * cols + c0;
      alignas(64) double lanes[MB];
      for (std::size_t m = 0; m < MB; ++m) {
        lanes[m] = ydata[(b0 + m) * rows + r];
      }
      v8df acc[kNV];
      __builtin_memcpy(acc, lanes, sizeof(lanes));
      for (std::size_t c = 0; c < kc; ++c) {
        const double wc = w[c];
        const v8df* px = panel + c * kNV;
        for (std::size_t v = 0; v < kNV; ++v) {
          acc[v] += wc * px[v];
        }
      }
      __builtin_memcpy(lanes, acc, sizeof(lanes));
      for (std::size_t m = 0; m < MB; ++m) {
        ydata[(b0 + m) * rows + r] = lanes[m];
      }
    }
  }
#else
  std::array<double, kColBlock * MB> panel;
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t kc = std::min(kColBlock, cols - c0);
    for (std::size_t m = 0; m < MB; ++m) {
      const double* xr = xdata + (b0 + m) * cols + c0;
      for (std::size_t c = 0; c < kc; ++c) {
        panel[c * MB + m] = xr[c];
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* w = wdata + r * cols + c0;
      std::array<double, MB> acc;
      for (std::size_t m = 0; m < MB; ++m) {
        acc[m] = ydata[(b0 + m) * rows + r];
      }
      for (std::size_t c = 0; c < kc; ++c) {
        const double wc = w[c];
        const double* px = panel.data() + c * MB;
        for (std::size_t m = 0; m < MB; ++m) {
          acc[m] += wc * px[m];
        }
      }
      for (std::size_t m = 0; m < MB; ++m) {
        ydata[(b0 + m) * rows + r] = acc[m];
      }
    }
  }
#endif
}

TRIDENT_KERNEL_CLONES
void matmul_block_wide(const double* wdata, std::size_t rows,
                       std::size_t cols, const double* xdata, double* ydata,
                       std::size_t b0) {
  matmul_panel<kBatchBlock>(wdata, rows, cols, xdata, ydata, b0);
}

TRIDENT_KERNEL_CLONES
void matmul_block_small(const double* wdata, std::size_t rows,
                        std::size_t cols, const double* xdata, double* ydata,
                        std::size_t b0) {
  matmul_panel<kBatchBlockSmall>(wdata, rows, cols, xdata, ydata, b0);
}

/// Transposed-GEMM block: samples [b0, b0+mb).  Each sample owns its output
/// row (y[c] += w[c]·xr has no cross-column chain), so the column loop
/// vectorises at full width on every clone.
TRIDENT_KERNEL_CLONES
void matmul_transposed_block(const double* wdata, std::size_t rows,
                             std::size_t cols, const double* xdata,
                             double* ydata, std::size_t b0, std::size_t mb) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* w = wdata + r * cols;
    for (std::size_t m = 0; m < mb; ++m) {
      const double xr = xdata[(b0 + m) * rows + r];
      double* yr = ydata + (b0 + m) * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        yr[c] += w[c] * xr;
      }
    }
  }
}

/// One weight row of the batched outer-product accumulation, samples in
/// batch order (bit-identical to sequential add_outer calls).
TRIDENT_KERNEL_CLONES
void add_outer_row(double* w, const double* adata, const double* bdata,
                   std::size_t rows, std::size_t cols, std::size_t batch,
                   std::size_t r, double scale) {
  for (std::size_t m = 0; m < batch; ++m) {
    const double ar = scale * adata[m * rows + r];
    const double* br = bdata + m * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      w[c] += ar * br[c];
    }
  }
}

/// ISA tier the target_clones resolver picks on this machine.  GCC's ifunc
/// resolver and __builtin_cpu_supports consult the same CPUID feature words,
/// so this names the clone that actually runs.
[[nodiscard]] const char* kernel_isa() {
#ifdef TRIDENT_HAVE_KERNEL_CLONES
  if (__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (__builtin_cpu_supports("avx2")) {
    return "avx2";
  }
#endif
  return "baseline";
}

/// Batched-kernel metrics.  The dispatch counter is suffixed with the ISA
/// picked at load time so a metrics snapshot records which clone produced
/// the numbers (the simple registry has no label support).
struct GemmMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& dispatch = reg.counter(
      std::string("trident_gemm_dispatch_") + kernel_isa() + "_total",
      "batched GEMM calls dispatched to this machine's best kernel clone");
  telemetry::Counter& matmul_calls =
      reg.counter("trident_gemm_matmul_total", "blocked y = x*W^T calls");
  telemetry::Counter& matmul_transposed_calls = reg.counter(
      "trident_gemm_matmul_transposed_total", "blocked y = x*W calls");
  telemetry::Counter& add_outer_calls =
      reg.counter("trident_gemm_add_outer_batch_total",
                  "batched outer-product accumulations");
  telemetry::Histogram& matmul_seconds =
      reg.histogram("trident_gemm_matmul_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one blocked matmul_into call");
  telemetry::Histogram& matmul_transposed_seconds =
      reg.histogram("trident_gemm_matmul_transposed_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one blocked matmul_transposed_into call");
  telemetry::Histogram& add_outer_seconds =
      reg.histogram("trident_gemm_add_outer_batch_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one add_outer_batch call");
};

[[nodiscard]] GemmMetrics& gemm_metrics() {
  static GemmMetrics m;
  return m;
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Vector Matrix::matvec(const Vector& x) const {
  Vector y;
  matvec_into(x, y);
  return y;
}

void Matrix::matvec_into(const Vector& x, Vector& y) const {
  TRIDENT_REQUIRE(x.size() == cols_, "matvec dimension mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* w = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += w[c] * x[c];
    }
    y[r] = acc;
  }
}

Vector Matrix::matvec_transposed(const Vector& x) const {
  Vector y;
  matvec_transposed_into(x, y);
  return y;
}

void Matrix::matvec_transposed_into(const Vector& x, Vector& y) const {
  TRIDENT_REQUIRE(x.size() == rows_, "transposed matvec dimension mismatch");
  y.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* w = data_.data() + r * cols_;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      y[c] += w[c] * xr;
    }
  }
}

Matrix Matrix::matmul(const Matrix& x) const {
  Matrix y(x.rows(), rows_);
  matmul_into(x, y);
  return y;
}

void Matrix::matmul_into(const Matrix& x, Matrix& y) const {
  TRIDENT_REQUIRE(x.cols() == cols_, "matmul dimension mismatch");
  TRIDENT_REQUIRE(y.rows() == x.rows() && y.cols() == rows_,
                  "matmul output shape mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = x.rows();
  const std::size_t full_blocks = batch / kBatchBlock;
  std::fill(y.data().begin(), y.data().end(), 0.0);

  parallel_for(
      0, full_blocks,
      [&](std::size_t blk) {
        matmul_block_wide(data_.data(), rows_, cols_, x.data().data(),
                          y.data().data(), blk * kBatchBlock);
      },
      grain_for(rows_ * cols_ * kBatchBlock));

  // Tail: one half-width panel if at least 8 samples remain, then the
  // per-sample kernel for the rest.
  std::size_t b = full_blocks * kBatchBlock;
  if (batch - b >= kBatchBlockSmall) {
    matmul_block_small(data_.data(), rows_, cols_, x.data().data(),
                       y.data().data(), b);
    b += kBatchBlockSmall;
  }
  for (; b < batch; ++b) {
    const double* xr = x.data().data() + b * cols_;
    double* yr = y.data().data() + b * rows_;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* w = data_.data() + r * cols_;
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) {
        acc += w[c] * xr[c];
      }
      yr[r] = acc;
    }
  }
  if (telem) {
    GemmMetrics& m = gemm_metrics();
    m.dispatch.add(1);
    m.matmul_calls.add(1);
    m.matmul_seconds.observe(seconds_since(t0));
  }
}

Matrix Matrix::matmul_transposed(const Matrix& x) const {
  Matrix y(x.rows(), cols_);
  matmul_transposed_into(x, y);
  return y;
}

void Matrix::matmul_transposed_into(const Matrix& x, Matrix& y) const {
  TRIDENT_REQUIRE(x.cols() == rows_, "transposed matmul dimension mismatch");
  TRIDENT_REQUIRE(y.rows() == x.rows() && y.cols() == cols_,
                  "transposed matmul output shape mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = x.rows();
  std::fill(y.data().begin(), y.data().end(), 0.0);

  // Each sample owns its output row, so blocking over samples keeps every
  // weight row hot in L1 across the block while workers write disjoint rows.
  const std::size_t blocks = (batch + kBatchBlock - 1) / kBatchBlock;
  parallel_for(
      0, blocks,
      [&](std::size_t blk) {
        const std::size_t b0 = blk * kBatchBlock;
        matmul_transposed_block(data_.data(), rows_, cols_, x.data().data(),
                                y.data().data(), b0,
                                std::min(kBatchBlock, batch - b0));
      },
      grain_for(rows_ * cols_ * kBatchBlock));
  if (telem) {
    GemmMetrics& m = gemm_metrics();
    m.dispatch.add(1);
    m.matmul_transposed_calls.add(1);
    m.matmul_transposed_seconds.observe(seconds_since(t0));
  }
}

void Matrix::add_outer_batch(const Matrix& a, const Matrix& b, double scale) {
  TRIDENT_REQUIRE(a.rows() == b.rows(), "outer-product batch mismatch");
  TRIDENT_REQUIRE(a.cols() == rows_ && b.cols() == cols_,
                  "outer-product dimension mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = a.rows();
  // Workers own disjoint weight rows; per element the batch accumulates in
  // sample order, matching sequential add_outer calls exactly.
  parallel_for(
      0, rows_,
      [&](std::size_t r) {
        add_outer_row(data_.data() + r * cols_, a.data().data(),
                      b.data().data(), rows_, cols_, batch, r, scale);
      },
      grain_for(batch * cols_));
  if (telem) {
    GemmMetrics& m = gemm_metrics();
    m.dispatch.add(1);
    m.add_outer_calls.add(1);
    m.add_outer_seconds.observe(seconds_since(t0));
  }
}

void Matrix::add_outer(const Vector& a, const Vector& b, double scale) {
  TRIDENT_REQUIRE(a.size() == rows_ && b.size() == cols_,
                  "outer-product dimension mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    double* w = data_.data() + r * cols_;
    const double ar = scale * a[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      w[c] += ar * b[c];
    }
  }
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.at(c, r) = at(r, c);
    }
  }
  return t;
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) {
    v = rng.uniform(-limit, limit);
  }
  return m;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

Matrix as_row(const Vector& v) {
  Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.data().begin());
  return m;
}

Vector hadamard(const Vector& a, const Vector& b) {
  TRIDENT_REQUIRE(a.size() == b.size(), "hadamard dimension mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] * b[i];
  }
  return out;
}

void hadamard_into(const Vector& a, Vector& out) {
  TRIDENT_REQUIRE(a.size() == out.size(), "hadamard dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] *= a[i];
  }
}

double dot(const Vector& a, const Vector& b) {
  TRIDENT_REQUIRE(a.size() == b.size(), "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

std::size_t argmax(const Vector& v) {
  TRIDENT_REQUIRE(!v.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

}  // namespace trident::nn
