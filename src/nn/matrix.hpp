// Dense matrix / vector math for the functional neural-network simulation.
//
// The functional side of this project (in-situ training, quantization
// studies) works on small dense layers, so a simple row-major matrix with
// explicit loops is all that is needed; the heavy analytical sweeps use the
// layer *descriptors* in layer.hpp instead and never materialise tensors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace trident::nn {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    TRIDENT_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    TRIDENT_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    TRIDENT_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    TRIDENT_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    TRIDENT_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  /// Re-shapes to (rows × cols) in place, discarding the contents.  The
  /// backing vector only grows — shrinking and re-growing within the
  /// high-water mark never reallocates, which is what lets a PlanArena
  /// (nn/plan.hpp) reuse one Matrix across layers of different widths with
  /// zero steady-state allocation.
  void reshape(std::size_t rows, std::size_t cols) {
    TRIDENT_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// y = W x
  [[nodiscard]] Vector matvec(const Vector& x) const;
  /// y = Wᵀ x
  [[nodiscard]] Vector matvec_transposed(const Vector& x) const;
  /// In-place y = W x (y is resized; no allocation when already sized).
  void matvec_into(const Vector& x, Vector& y) const;
  /// In-place y = Wᵀ x.
  void matvec_transposed_into(const Vector& x, Vector& y) const;
  /// W += scale · a bᵀ  (rank-1 update; the backprop outer product).
  void add_outer(const Vector& a, const Vector& b, double scale);

  // --- batched (GEMM) kernels --------------------------------------------
  //
  // A batch is a Matrix whose ROWS are samples.  The kernels are cache
  // blocked (samples are packed into column-major panels so the weight row
  // is loaded once per panel instead of once per sample) and dispatched
  // over the thread pool, but each sample's accumulation runs in the same
  // strict column order as the per-sample kernel — so every output row is
  // bit-identical to the corresponding matvec call.

  /// Y = X Wᵀ: x is (batch × cols); returns (batch × rows), row b equal to
  /// matvec(x.row(b)) bit-for-bit.
  [[nodiscard]] Matrix matmul(const Matrix& x) const;
  /// In-place variant; y must be (x.rows() × rows()).
  void matmul_into(const Matrix& x, Matrix& y) const;

  /// Y = X W: x is (batch × rows); returns (batch × cols), row b equal to
  /// matvec_transposed(x.row(b)) bit-for-bit.
  [[nodiscard]] Matrix matmul_transposed(const Matrix& x) const;
  /// In-place variant; y must be (x.rows() × cols()).
  void matmul_transposed_into(const Matrix& x, Matrix& y) const;

  /// W += scale · Σ_b a.row(b) ⊗ b.row(b): the accumulated outer product of
  /// a batch (a is batch × rows, b is batch × cols).  Per element, samples
  /// accumulate in batch order — bit-identical to sequential add_outer
  /// calls.
  void add_outer_batch(const Matrix& a, const Matrix& b, double scale);

  [[nodiscard]] Matrix transposed() const;

  /// Xavier/Glorot-uniform initialisation.
  static Matrix xavier(std::size_t rows, std::size_t cols, Rng& rng);

  /// Max |element|.
  [[nodiscard]] double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// One-row Matrix holding `v`: a single sample as a batch of one, the form
/// every MatvecBackend primitive takes.  A one-row result's data() is the
/// sample's output vector.
[[nodiscard]] Matrix as_row(const Vector& v);

/// Element-wise (Hadamard) product.
[[nodiscard]] Vector hadamard(const Vector& a, const Vector& b);

/// In-place Hadamard product: out[i] *= a[i].
void hadamard_into(const Vector& a, Vector& out);

/// Dot product.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Index of the maximum element (argmax); ties resolve to the first.
[[nodiscard]] std::size_t argmax(const Vector& v);

}  // namespace trident::nn
