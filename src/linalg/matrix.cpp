#include "linalg/matrix.h"

#include <cmath>

#include "simd/simd.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

/// Tile edge (in rows / columns) for the cache-blocked loops below. 64
/// rows of a 720-wide matrix is ~360 KiB — a band of output rows plus
/// the streamed input panel stay L2-resident on every target we bench.
constexpr std::size_t kTile = 64;

/// Below this right-hand-side width the axpy-per-row form degenerates
/// into per-call overhead and short vector bodies, so products switch to
/// long dots against the transposed operand instead. Dots also skip the
/// output read-modify-write stream, so the crossover sits well above the
/// call overhead break-even.
constexpr std::size_t kNarrow = 128;

}  // namespace

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Blocked so both the read and the write side touch kTile consecutive
  // cache lines per pass instead of striding a full row apart.
  for (std::size_t rr = 0; rr < rows_; rr += kTile) {
    const std::size_t rend = std::min(rows_, rr + kTile);
    for (std::size_t cc = 0; cc < cols_; cc += kTile) {
      const std::size_t cend = std::min(cols_, cc + kTile);
      for (std::size_t r = rr; r < rend; ++r)
        for (std::size_t c = cc; c < cend; ++c) t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  DPZ_REQUIRE(cols_ == other.rows_, "matrix multiply dimension mismatch");
  Matrix out(rows_, other.cols_);
  const std::size_t n = other.cols_;
  const simd::KernelTable& ops = simd::kernels();
  if (n < kNarrow) {
    // Narrow right-hand side: one long dot per output element against
    // the transposed operand beats n-wide axpy calls by a wide margin.
    // Blocks of four left rows reuse each streamed bt row out of L1.
    constexpr std::size_t kRowBlock = 4;
    const Matrix bt = other.transposed();
    parallel_for(0, (rows_ + kRowBlock - 1) / kRowBlock,
                 [&](std::size_t bi) {
                   const std::size_t i0 = bi * kRowBlock;
                   const std::size_t i1 = std::min(rows_, i0 + kRowBlock);
                   for (std::size_t j = 0; j < n; ++j) {
                     const double* bt_row = bt.row(j).data();
                     for (std::size_t i = i0; i < i1; ++i)
                       out(i, j) = ops.dot(row(i).data(), bt_row, cols_);
                   }
                 });
    return out;
  }
  // ikj order with a k-tile: the axpy kernel streams one row of `other`
  // into one row of `out` (both contiguous), and the tile keeps a panel
  // of `other` cache-resident while a band of output rows reuses it.
  // Every output row still accumulates its k terms in ascending order,
  // so the result is bit-identical to the untiled scalar loop.
  parallel_chunks(0, rows_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; i += kTile) {
      const std::size_t iend = std::min(hi, i + kTile);
      for (std::size_t kk = 0; kk < cols_; kk += kTile) {
        const std::size_t kend = std::min(cols_, kk + kTile);
        for (std::size_t r = i; r < iend; ++r) {
          double* out_row = out.row(r).data();
          for (std::size_t k = kk; k < kend; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            ops.axpy(a, other.row(k).data(), out_row, n);
          }
        }
      }
    }
  });
  return out;
}

Matrix Matrix::transpose_multiply(const Matrix& other) const {
  DPZ_REQUIRE(rows_ == other.rows_,
              "transpose_multiply dimension mismatch");
  Matrix out(cols_, other.cols_);
  const std::size_t n = other.cols_;
  const simd::KernelTable& ops = simd::kernels();
  if (cols_ < kNarrow && n < kNarrow) {
    // Both operands narrow: transpose each once and take long contiguous
    // dots.
    const Matrix at = transposed();
    const Matrix bt = other.transposed();
    for (std::size_t i = 0; i < cols_; ++i) {
      double* out_row = out.row(i).data();
      for (std::size_t j = 0; j < n; ++j)
        out_row[j] = ops.dot(at.row(i).data(), bt.row(j).data(), rows_);
    }
    return out;
  }
  // out(i,j) = sum_k this(k,i) * other(k,j): accumulate rank-1 updates row
  // by row of the inputs so all accesses stay contiguous. Each pool chunk
  // is a contiguous band of output rows i; every band accumulates its rows
  // in the same k order, so the result does not depend on the band count.
  // The i-tile bounds the set of output rows touched per k sweep, keeping
  // them cache-resident instead of streaming the whole output each k.
  parallel_chunks(0, cols_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ii = lo; ii < hi; ii += kTile) {
      const std::size_t iend = std::min(hi, ii + kTile);
      for (std::size_t k = 0; k < rows_; ++k) {
        const double* a_row = row(k).data();
        const double* b_row = other.row(k).data();
        for (std::size_t i = ii; i < iend; ++i) {
          const double a = a_row[i];
          if (a == 0.0) continue;
          ops.axpy(a, b_row, out.row(i).data(), n);
        }
      }
    }
  });
  return out;
}

std::vector<double> Matrix::multiply(std::span<const double> v) const {
  DPZ_REQUIRE(v.size() == cols_, "matrix-vector dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  const simd::KernelTable& ops = simd::kernels();
  for (std::size_t r = 0; r < rows_; ++r)
    out[r] = ops.dot(row(r).data(), v.data(), cols_);
  return out;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  DPZ_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
              "max_abs_diff shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

}  // namespace dpz
