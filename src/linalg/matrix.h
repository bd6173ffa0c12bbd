// Dense row-major double-precision matrix.
//
// Eigen is not available in this environment; this is the self-contained
// matrix type the PCA stage (Stage 2 of DPZ) and the statistics substrate
// are built on. Operations are deliberately simple and cache-aware (ikj
// multiply loops, contiguous row access) rather than clever — M rarely
// exceeds a few thousand in the paper's workloads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/resource.h"

namespace dpz {

/// Storage allocator for Matrix: every buffer starts on a 64-byte cache
/// line, so whenever the row length is a multiple of 8 doubles every row
/// does, and the SIMD kernels' loads never straddle a line by accident
/// of heap layout. malloc only promises 16 bytes; on a 16-byte offset
/// the 720 x 1440 covariance ran 29% slower at one thread (55.5 vs
/// 43.1 ms, x86-64 AVX2), which made single-thread timings a lottery.
/// It over-allocates by one line rather than calling the aligned
/// operator new: glibc's memalign splits heap chunks, and raised
/// dpz_bench turbulence3d-sampling's peak RSS from 24.7 to about 29 MiB.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  CacheLineAllocator() = default;
  template <typename U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  [[nodiscard]] std::size_t max_size() const noexcept {
    return (SIZE_MAX - kAlign) / sizeof(T);
  }
  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));
    auto* raw =
        static_cast<unsigned char*>(::operator new(n * sizeof(T) + kAlign));
    // raw is aligned for a pointer, so the next line boundary is at
    // least one pointer in, and the raw pointer fits just before it.
    unsigned char* p =
        raw + (kAlign - std::bit_cast<std::uintptr_t>(raw) % kAlign);
    static_cast<void**>(static_cast<void*>(p))[-1] = raw;
    return static_cast<T*>(static_cast<void*>(p));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(static_cast<void**>(static_cast<void*>(p))[-1]);
  }
  friend bool operator==(const CacheLineAllocator& /*a*/,
                         const CacheLineAllocator& /*b*/) {
    return true;
  }
};

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        charge_(rows * cols * sizeof(double)),
        data_(rows * cols, 0.0) {
    DPZ_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  }

  /// Copies existing data (row-major; size must equal rows*cols).
  Matrix(std::size_t rows, std::size_t cols, const std::vector<double>& data)
      : rows_(rows),
        cols_(cols),
        charge_(data.size() * sizeof(double)),
        data_(data.begin(), data.end()) {
    DPZ_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
    DPZ_REQUIRE(data_.size() == rows * cols,
                "matrix data size does not match dimensions");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    DPZ_REQUIRE(r < rows_, "row index out of range");
    return std::span<double>(data_).subspan(r * cols_, cols_);
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    DPZ_REQUIRE(r < rows_, "row index out of range");
    return std::span<const double>(data_).subspan(r * cols_, cols_);
  }

  [[nodiscard]] std::span<double> flat() { return std::span<double>(data_); }
  [[nodiscard]] std::span<const double> flat() const {
    return std::span<const double>(data_);
  }

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  [[nodiscard]] Matrix transposed() const;

  /// this * other (dimensions must be compatible). Parallelized over rows.
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  /// this^T * other without materializing the transpose.
  [[nodiscard]] Matrix transpose_multiply(const Matrix& other) const;

  /// Matrix-vector product this * v.
  [[nodiscard]] std::vector<double> multiply(
      std::span<const double> v) const;

  /// Max |a_ij - b_ij| between two equal-shaped matrices.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Governed memory accounting for the buffer below. Declared before
  // data_ so the budget check precedes the allocation on construction
  // (and the release follows the free on destruction); copies re-charge,
  // moves transfer (util/resource.h). No-op outside governed scopes.
  ScopedCharge charge_;
  std::vector<double, CacheLineAllocator<double>> data_;
};

}  // namespace dpz
