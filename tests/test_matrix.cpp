// Unit tests for the dense Matrix type: shape checks, multiplication
// identities, transpose composition, matrix-vector products, and
// cache-line-aligned storage.
#include <gtest/gtest.h>

#include <cstdint>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace dpz {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

TEST(Matrix, ZeroInitialized) {
  const Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  for (const double v : m.flat()) EXPECT_EQ(v, 0.0);
}

TEST(Matrix, RejectsEmptyDimensions) {
  EXPECT_THROW(Matrix(0, 3), InvalidArgument);
  EXPECT_THROW(Matrix(3, 0), InvalidArgument);
}

TEST(Matrix, WrapRejectsSizeMismatch) {
  EXPECT_THROW(Matrix(2, 2, {1.0, 2.0, 3.0}), InvalidArgument);
}

// Storage starts on a cache line however it was made, so a row length
// that is a multiple of 8 doubles puts every row on one; the contents
// survive copies and the wrapping constructor.
TEST(Matrix, StorageStartsOnACacheLine) {
  auto line_offset = [](const Matrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.flat().data()) % 64;
  };
  for (const std::size_t cols : {1, 3, 8, 1440}) {
    const Matrix a = random_matrix(5, cols, cols);
    EXPECT_EQ(line_offset(a), 0U) << cols;
    const Matrix copy = a;
    EXPECT_EQ(line_offset(copy), 0U) << cols;
    EXPECT_EQ(copy.max_abs_diff(a), 0.0);
  }
  const Matrix wrapped(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(line_offset(wrapped), 0U);
  EXPECT_EQ(wrapped(1, 2), 6.0);
  const Matrix big(720, 1440);
  for (std::size_t r = 0; r < big.rows(); r += 97)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.row(r).data()) % 64, 0U);
}

TEST(Matrix, RowAccessIsContiguous) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const auto row = m.row(1);
  EXPECT_EQ(row.size(), 3U);
  EXPECT_EQ(row[0], 4.0);
  EXPECT_EQ(row[2], 6.0);
  EXPECT_THROW((void)m.row(2), InvalidArgument);
}

TEST(Matrix, IdentityMultiplicationIsNeutral) {
  const Matrix a = random_matrix(5, 5, 1);
  const Matrix i = Matrix::identity(5);
  EXPECT_LT(a.multiply(i).max_abs_diff(a), 1e-14);
  EXPECT_LT(i.multiply(a).max_abs_diff(a), 1e-14);
}

TEST(Matrix, MultiplyKnownValues) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MultiplyRejectsBadShapes) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), InvalidArgument);
}

TEST(Matrix, TransposeTwiceIsIdentity) {
  const Matrix a = random_matrix(4, 7, 2);
  EXPECT_EQ(a.transposed().transposed().max_abs_diff(a), 0.0);
}

TEST(Matrix, TransposeMultiplyMatchesExplicit) {
  const Matrix a = random_matrix(6, 4, 3);
  const Matrix b = random_matrix(6, 5, 4);
  const Matrix fused = a.transpose_multiply(b);
  const Matrix explicit_form = a.transposed().multiply(b);
  EXPECT_LT(fused.max_abs_diff(explicit_form), 1e-12);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a(2, 3, {1, 0, 2, 0, 1, -1});
  const std::vector<double> v{3.0, 4.0, 5.0};
  const std::vector<double> out = a.multiply(v);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_DOUBLE_EQ(out[0], 13.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
}

TEST(Matrix, MatrixVectorRejectsBadLength) {
  const Matrix a(2, 3);
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(a.multiply(std::span<const double>(v)), InvalidArgument);
}

TEST(Matrix, AssociativityProperty) {
  const Matrix a = random_matrix(3, 4, 5);
  const Matrix b = random_matrix(4, 5, 6);
  const Matrix c = random_matrix(5, 2, 7);
  const Matrix left = a.multiply(b).multiply(c);
  const Matrix right = a.multiply(b.multiply(c));
  EXPECT_LT(left.max_abs_diff(right), 1e-12);
}

TEST(Matrix, MaxAbsDiffShapeGuard) {
  const Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW((void)a.max_abs_diff(b), InvalidArgument);
}

}  // namespace
}  // namespace dpz
