// NdArray<T>: the dense row-major n-dimensional container every dataset in
// this repository lives in. Scientific fields from the paper's Table I map
// onto it directly: HACC is 1-D, CESM-ATM is 2-D (1800 x 3600), JHTDB is
// 3-D (128 x 128 x 128). DPZ itself flattens any shape to 1-D before block
// decomposition, so the container keeps shape metadata alongside flat
// storage.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/resource.h"

namespace dpz {

/// Dense row-major n-dimensional array (last index varies fastest).
template <typename T>
class NdArray {
 public:
  NdArray() = default;

  /// Allocates a zero-initialized array of the given shape.
  explicit NdArray(std::vector<std::size_t> shape)
      : shape_(std::move(shape)),
        charge_(checked_size(shape_) * sizeof(T)),
        data_(checked_size(shape_), T{}) {}

  NdArray(std::initializer_list<std::size_t> shape)
      : NdArray(std::vector<std::size_t>(shape)) {}

  /// Wraps existing data; `data.size()` must match the shape's element count.
  NdArray(std::vector<std::size_t> shape, std::vector<T> data)
      : shape_(std::move(shape)),
        charge_(data.size() * sizeof(T)),
        data_(std::move(data)) {
    DPZ_REQUIRE(data_.size() == checked_size(shape_),
                "data size does not match shape");
  }

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Extent along dimension `d`.
  [[nodiscard]] std::size_t extent(std::size_t d) const {
    DPZ_REQUIRE(d < shape_.size(), "dimension out of range");
    return shape_[d];
  }

  [[nodiscard]] std::span<T> flat() { return std::span<T>(data_); }
  [[nodiscard]] std::span<const T> flat() const {
    return std::span<const T>(data_);
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  /// 1-D element access with bounds checking.
  [[nodiscard]] T& at(std::size_t i) {
    DPZ_REQUIRE(i < data_.size(), "flat index out of range");
    return data_[i];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    DPZ_REQUIRE(i < data_.size(), "flat index out of range");
    return data_[i];
  }

  /// 2-D element access (row-major).
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) {
    return data_[i * shape_[1] + j];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i * shape_[1] + j];
  }

  /// 3-D element access (row-major).
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j,
                                    std::size_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  /// Minimum and maximum over all elements (requires non-empty array).
  [[nodiscard]] std::pair<T, T> min_max() const {
    DPZ_REQUIRE(!data_.empty(), "min_max of empty array");
    T lo = data_[0], hi = data_[0];
    for (const T v : data_) {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    return {lo, hi};
  }

  /// Value range (max - min), the denominator of PSNR and relative error.
  [[nodiscard]] double value_range() const {
    const auto [lo, hi] = min_max();
    return static_cast<double>(hi) - static_cast<double>(lo);
  }

 private:
  static std::size_t checked_size(const std::vector<std::size_t>& shape) {
    DPZ_REQUIRE(!shape.empty(), "shape must have at least one dimension");
    std::size_t n = 1;
    for (const std::size_t e : shape) {
      DPZ_REQUIRE(e > 0, "shape extents must be positive");
      DPZ_REQUIRE(n <= SIZE_MAX / e, "shape overflows size_t");
      n *= e;
    }
    return n;
  }

  std::vector<std::size_t> shape_;
  // Governed memory accounting for data_ (declared first: charge before
  // the allocation, release after the free). See util/resource.h.
  ScopedCharge charge_;
  std::vector<T> data_;
};

using FloatArray = NdArray<float>;
using DoubleArray = NdArray<double>;

}  // namespace dpz
