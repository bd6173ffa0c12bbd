// Unit tests for io/ndarray.h: shape bookkeeping, indexing, reshaping,
// and range helpers.
#include <gtest/gtest.h>

#include "io/ndarray.h"
#include "util/error.h"

namespace dpz {
namespace {

TEST(NdArray, ZeroInitialized) {
  FloatArray a({3, 4});
  EXPECT_EQ(a.size(), 12U);
  EXPECT_EQ(a.rank(), 2U);
  for (const float v : a.flat()) EXPECT_EQ(v, 0.0F);
}

TEST(NdArray, ExtentAccess) {
  FloatArray a({2, 3, 5});
  EXPECT_EQ(a.extent(0), 2U);
  EXPECT_EQ(a.extent(1), 3U);
  EXPECT_EQ(a.extent(2), 5U);
  EXPECT_THROW((void)a.extent(3), InvalidArgument);
}

TEST(NdArray, RowMajor2dIndexing) {
  FloatArray a({2, 3});
  a(1, 2) = 7.0F;
  EXPECT_EQ(a[1 * 3 + 2], 7.0F);
  a(0, 0) = 1.0F;
  EXPECT_EQ(a[0], 1.0F);
}

TEST(NdArray, RowMajor3dIndexing) {
  FloatArray a({2, 3, 4});
  a(1, 2, 3) = 9.0F;
  EXPECT_EQ(a[(1 * 3 + 2) * 4 + 3], 9.0F);
}

TEST(NdArray, WrapExistingData) {
  std::vector<float> data{1, 2, 3, 4, 5, 6};
  FloatArray a({2, 3}, data);
  EXPECT_EQ(a(0, 2), 3.0F);
  EXPECT_EQ(a(1, 0), 4.0F);
}

TEST(NdArray, WrapRejectsSizeMismatch) {
  std::vector<float> data{1, 2, 3};
  EXPECT_THROW(FloatArray({2, 3}, data), InvalidArgument);
}

TEST(NdArray, RejectsZeroExtent) {
  EXPECT_THROW(FloatArray({0, 3}), InvalidArgument);
}

TEST(NdArray, BoundsCheckedAt) {
  FloatArray a({4});
  EXPECT_NO_THROW((void)a.at(3));
  EXPECT_THROW((void)a.at(4), InvalidArgument);
}

TEST(NdArray, MinMaxAndRange) {
  FloatArray a({5}, {3.0F, -1.0F, 4.0F, 1.0F, 5.0F});
  const auto [lo, hi] = a.min_max();
  EXPECT_EQ(lo, -1.0F);
  EXPECT_EQ(hi, 5.0F);
  EXPECT_DOUBLE_EQ(a.value_range(), 6.0);
}

}  // namespace
}  // namespace dpz
