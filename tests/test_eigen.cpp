// Unit and property tests for the symmetric eigensolvers: analytic 2x2/3x3
// cases, orthonormality of eigenvectors, A = V diag(l) V^T reconstruction,
// agreement between the QL solver and a cyclic Jacobi reference, and the
// truncated top-k solver against the dense one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>

#include "linalg/eigen_sym.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

// SPD matrix with controlled spectral decay (like a covariance matrix).
Matrix random_spd(std::size_t n, std::uint64_t seed, double decay = 0.5) {
  Rng rng(seed);
  Matrix q(n, n);
  for (double& v : q.flat()) v = rng.normal();
  // A = Q^T D Q with decaying positive diagonal.
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    d(i, i) = std::pow(decay, static_cast<double>(i)) + 1e-6;
  return q.transpose_multiply(d.multiply(q));
}

// Cyclic Jacobi rotations (O(n^3) per sweep, ~6-10 sweeps): slower than
// QL but transparently correct, kept here as the cross-validation oracle.
SymmetricEigen eigen_sym_jacobi(const Matrix& input) {
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix v = Matrix::identity(n);

  constexpr int kMaxSweeps = 64;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    if (off < 1e-300) break;

    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        const double threshold =
            1e-15 * std::sqrt(std::abs(a(p, p) * a(q, q))) + 1e-300;
        if (std::abs(apq) <= threshold) continue;
        rotated = true;

        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    if (!rotated) break;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto by_value = [&](std::size_t x, std::size_t y) {
    return a(x, x) > a(y, y);
  };
  std::stable_sort(order.begin(), order.end(), by_value);
  SymmetricEigen out{std::vector<double>(n), Matrix(n, n)};
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = v(i, order[j]);
  }
  return out;
}

double reconstruction_error(const Matrix& a, const SymmetricEigen& eig) {
  const std::size_t n = a.rows();
  const std::size_t k = eig.values.size();
  Matrix rec(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t c = 0; c < k; ++c)
        sum += eig.vectors(i, c) * eig.values[c] * eig.vectors(j, c);
      rec(i, j) = sum;
    }
  return rec.max_abs_diff(a);
}

double orthonormality_error(const Matrix& v) {
  double worst = 0.0;
  for (std::size_t a = 0; a < v.cols(); ++a)
    for (std::size_t b = a; b < v.cols(); ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < v.rows(); ++i) dot += v(i, a) * v(i, b);
      worst = std::max(worst, std::abs(dot - (a == b ? 1.0 : 0.0)));
    }
  return worst;
}

TEST(EigenSym, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a(2, 2, {2, 1, 1, 2});
  const SymmetricEigen eig = eigen_sym(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  EXPECT_LT(reconstruction_error(a, eig), 1e-12);
}

TEST(EigenSym, KnownDiagonal) {
  Matrix a(4, 4);
  a(0, 0) = -1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 2.0;
  a(3, 3) = 0.0;
  const SymmetricEigen eig = eigen_sym(a);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 0.0, 1e-12);
  EXPECT_NEAR(eig.values[3], -1.0, 1e-12);
}

TEST(EigenSym, OneByOne) {
  const Matrix a(1, 1, {7.0});
  const SymmetricEigen eig = eigen_sym(a);
  ASSERT_EQ(eig.values.size(), 1U);
  EXPECT_DOUBLE_EQ(eig.values[0], 7.0);
  EXPECT_DOUBLE_EQ(eig.vectors(0, 0), 1.0);
}

TEST(EigenSym, RejectsNonSquare) {
  const Matrix a(2, 3);
  EXPECT_THROW(eigen_sym(a), InvalidArgument);
}

class EigenSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeTest, ReconstructsInput) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 500 + n);
  const SymmetricEigen eig = eigen_sym(a);
  EXPECT_LT(reconstruction_error(a, eig), 1e-9 * static_cast<double>(n));
}

TEST_P(EigenSizeTest, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 600 + n);
  const SymmetricEigen eig = eigen_sym(a);
  EXPECT_LT(orthonormality_error(eig.vectors), 1e-10);
}

TEST_P(EigenSizeTest, ValuesSortedDescending) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 700 + n);
  const SymmetricEigen eig = eigen_sym(a);
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_GE(eig.values[i - 1], eig.values[i]);
}

TEST_P(EigenSizeTest, QlMatchesJacobi) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 800 + n);
  const SymmetricEigen ql = eigen_sym(a);
  const SymmetricEigen jacobi = eigen_sym_jacobi(a);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(ql.values[i], jacobi.values[i], 1e-9)
        << "eigenvalue " << i << " at n=" << n;
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, EigenSizeTest,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

TEST(EigenSym, TraceEqualsEigenvalueSum) {
  const std::size_t n = 20;
  const Matrix a = random_symmetric(n, 31);
  const SymmetricEigen eig = eigen_sym(a);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += eig.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(EigenSym, HandlesRepeatedEigenvalues) {
  // Identity: all eigenvalues 1; eigenvectors must still be orthonormal.
  const Matrix a = Matrix::identity(10);
  const SymmetricEigen eig = eigen_sym(a);
  for (const double v : eig.values) EXPECT_NEAR(v, 1.0, 1e-12);
  EXPECT_LT(orthonormality_error(eig.vectors), 1e-12);
}

// A rank-deficient covariance can reduce to a tridiagonal whose leading
// block is zero with subnormal couplings. There eps * (|d[m]| + |d[m+1]|)
// underflows below e[m], so the relative split test never fires; QL
// must still split instead of iterating on denormals until it throws.
TEST(EigenSym, SubnormalNullBlockConverges) {
  const std::size_t n = 8;
  TridiagonalReduction r;
  r.reflectors = Matrix(n, n);
  r.norm2.assign(n, 0.0);  // no reflectors: the transform is I
  r.diag = {0.0, 0.0, 4.9e-324, 0.0, 1.0, 2.0, 3.0, 4.0};
  r.subdiag = {0.0, 1e-323, 4.9e-324, 1e-323, 1e-323, 0.5, 0.25, 0.125};

  // The trailing 4 x 4 block alone, which the subnormal coupling cannot
  // move by a representable amount.
  Matrix block(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    block(i, i) = r.diag[4 + i];
    if (i > 0) block(i, i - 1) = block(i - 1, i) = r.subdiag[4 + i];
  }
  const std::vector<double> expect = eigen_sym(block).values;

  const std::vector<double> values = eigen_values_from(r);
  const SymmetricEigen eig = eigen_sym_from(r);
  ASSERT_EQ(values.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = i < 4 ? expect[i] : 0.0;
    EXPECT_NEAR(values[i], want, 1e-14) << i;
    EXPECT_NEAR(eig.values[i], want, 1e-14) << i;
  }
  EXPECT_LT(orthonormality_error(eig.vectors), 1e-14);
}

// ---- Truncated top-k solve (eigen_sym_topk) ---------------------------

TEST(EigenTopK, MatchesDenseOnLeadingPairs) {
  const std::size_t n = 120, k = 6;
  const Matrix a = random_spd(n, 41);
  const SymmetricEigen full = eigen_sym(a);
  const SymmetricEigen topk = eigen_sym_topk(a, k);
  ASSERT_EQ(topk.values.size(), k);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(topk.values[j], full.values[j],
                1e-6 * std::max(1.0, std::abs(full.values[j])))
        << "eigenvalue " << j;
    // Eigenvectors match up to sign.
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      dot += topk.vectors(i, j) * full.vectors(i, j);
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-5) << "eigenvector " << j;
  }
}

TEST(EigenTopK, SmallMatrixDelegatesToDense) {
  const Matrix a = random_spd(12, 43);
  const SymmetricEigen full = eigen_sym(a);
  const SymmetricEigen topk = eigen_sym_topk(a, 3);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(topk.values[j], full.values[j], 1e-10);
}

TEST(EigenTopK, VectorsOrthonormal) {
  const Matrix a = random_spd(150, 44);
  const SymmetricEigen topk = eigen_sym_topk(a, 8);
  EXPECT_LT(orthonormality_error(topk.vectors), 1e-8);
}

TEST(EigenTopK, RejectsBadK) {
  const Matrix a = random_spd(10, 45);
  EXPECT_THROW(eigen_sym_topk(a, 0), InvalidArgument);
  EXPECT_THROW(eigen_sym_topk(a, 11), InvalidArgument);
}

// eigen_topk_from (inverse iteration on a shared tridiagonal reduction,
// the Stage-2 hot path in fit_pca_spectrum/attach_top_components) gets
// its own coverage: residuals against the original matrix, agreement
// with the dense accumulation, and orthonormality on a clustered
// spectrum where inverse iteration is most fragile.

TEST(EigenTopKFrom, ResidualsSmallAgainstOriginal) {
  const std::size_t n = 120;
  const std::size_t k = 11;
  const Matrix a = random_spd(n, 46);
  const TridiagonalReduction r = tridiagonalize(a);
  const SymmetricEigen topk = eigen_topk_from(r, eigen_values_from(r), k);
  ASSERT_EQ(topk.values.size(), k);
  ASSERT_EQ(topk.vectors.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    // ||A v - lambda v||_inf per eigenpair.
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t c = 0; c < n; ++c) av += a(i, c) * topk.vectors(c, j);
      worst = std::max(worst,
                       std::abs(av - topk.values[j] * topk.vectors(i, j)));
    }
    EXPECT_LT(worst, 1e-8) << "eigenpair " << j;
  }
}

TEST(EigenTopKFrom, MatchesDenseAccumulationOnLeadingPairs) {
  const Matrix a = random_spd(90, 47);
  const TridiagonalReduction r = tridiagonalize(a);
  const SymmetricEigen full = eigen_sym_from(r);
  const SymmetricEigen topk = eigen_topk_from(r, eigen_values_from(r), 7);
  for (std::size_t j = 0; j < 7; ++j) {
    EXPECT_NEAR(topk.values[j], full.values[j], 1e-9 + 1e-9 * full.values[0]);
    double dot = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
      dot += topk.vectors(i, j) * full.vectors(i, j);
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-6) << "eigenvector " << j;
  }
}

TEST(EigenTopKFrom, ClusteredSpectrumStaysOrthonormal) {
  // V D V^T with an exactly repeated leading eigenvalue (V is a true
  // orthonormal basis, taken from a dense solve of a random symmetric
  // matrix): inverse iteration must return an orthonormal basis of the
  // cluster's eigenspace, not three copies of one direction.
  const std::size_t n = 80;
  const SymmetricEigen basis = eigen_sym(random_symmetric(n, 48));
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i)
    d[i] = i < 3 ? 2.0 : 1.0 / static_cast<double>(i + 1);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t c = 0; c < n; ++c)
        sum += basis.vectors(i, c) * d[c] * basis.vectors(j, c);
      a(i, j) = sum;
    }
  const TridiagonalReduction r = tridiagonalize(a);
  const SymmetricEigen topk = eigen_topk_from(r, eigen_values_from(r), 6);
  ASSERT_NEAR(topk.values[0], 2.0, 1e-9);
  ASSERT_NEAR(topk.values[2], 2.0, 1e-9);
  EXPECT_LT(orthonormality_error(topk.vectors), 1e-8);
}

// ---- Thread-count invariance -------------------------------------------
// From M = 256 the reduction runs on a team of row-owning participants
// and the back-transform on bands of vectors; both must reproduce the
// single-participant bits at every width. The sizes straddle the team
// threshold, and the zero-block matrix makes a skipped (scale == 0)
// step fall inside the team's range.

// Random symmetric matrix whose rows [p, n) do not couple to [0, p):
// reducing the lower block ends with a step whose row is zero left of
// the diagonal.
Matrix zero_block_symmetric(std::size_t n, std::size_t p,
                            std::uint64_t seed) {
  Matrix a = random_symmetric(n, seed);
  for (std::size_t i = p; i < n; ++i)
    for (std::size_t j = 0; j < p; ++j) {
      a(i, j) = 0.0;
      a(j, i) = 0.0;
    }
  return a;
}

::testing::AssertionResult bitwise_equal(std::span<const double> a,
                                         std::span<const double> b,
                                         const char* what) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << what << ": size mismatch";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

// Row i's reflector entries and reduced diagonal, row by row; the
// entries above the diagonal are scratch and excluded.
std::vector<double> reflector_entries(const Matrix& z) {
  std::vector<double> out;
  for (std::size_t i = 0; i < z.rows(); ++i)
    for (std::size_t j = 0; j <= i; ++j) out.push_back(z(i, j));
  return out;
}

TEST(EigenThreads, ReductionAndTopKAreBitwiseThreadCountInvariant) {
  struct Case {
    const char* name;
    Matrix a;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {255, 256, 257, 300, 720})
    cases.push_back({"random", random_symmetric(n, 50 + n)});
  cases.push_back({"zero_block", zero_block_symmetric(520, 400, 51)});

  for (const Case& c : cases) {
    const std::size_t n = c.a.rows();
    const std::size_t k = n / 24;
    TridiagonalReduction ref_r;
    SymmetricEigen ref_topk;
    {
      const ScopedThreads scope(1);
      ref_r = tridiagonalize(c.a);
      ref_topk = eigen_topk_from(ref_r, eigen_values_from(ref_r), k);
    }
    for (const unsigned threads : {2U, 3U, 4U, 8U}) {
      const ScopedThreads scope(threads);
      const TridiagonalReduction r = tridiagonalize(c.a);
      SCOPED_TRACE(::testing::Message() << c.name << " n=" << n
                                        << " threads=" << threads);
      EXPECT_TRUE(bitwise_equal(r.diag, ref_r.diag, "diag"));
      EXPECT_TRUE(bitwise_equal(r.subdiag, ref_r.subdiag, "subdiag"));
      EXPECT_TRUE(bitwise_equal(r.norm2, ref_r.norm2, "norm2"));
      EXPECT_TRUE(bitwise_equal(reflector_entries(r.reflectors),
                                reflector_entries(ref_r.reflectors),
                                "reflectors"));
      const SymmetricEigen topk =
          eigen_topk_from(r, eigen_values_from(r), k);
      EXPECT_TRUE(bitwise_equal(topk.values, ref_topk.values, "values"));
      EXPECT_TRUE(bitwise_equal(topk.vectors.flat(), ref_topk.vectors.flat(),
                                "vectors"));
    }
  }
}

TEST(EigenThreads, ZeroBlockSkipsAStepInsideTheTeamRange) {
  // Guards the case above: the skipped step must really be there.
  const TridiagonalReduction r =
      tridiagonalize(zero_block_symmetric(520, 400, 51));
  EXPECT_EQ(r.norm2[400], 0.0);
  EXPECT_GT(r.norm2[401], 0.0);
}

}  // namespace
}  // namespace dpz
