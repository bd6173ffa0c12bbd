// Unit and property tests for PCA: covariance correctness and its
// thread-count invariance, variance
// capture on constructed low-rank data, exact reconstruction at full rank,
// TVE-curve semantics, the DCT-domain identity from SS III-B2 (Eq. 4-6),
// the full-basis fit against eigen_sym, top-k fits against the full
// one, and the panel-kernel projections against the former row loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "dsp/dct.h"
#include "linalg/eigen_sym.h"
#include "linalg/pca.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

// M x N data with exactly `rank` independent directions plus tiny noise.
Matrix low_rank_data(std::size_t m, std::size_t n, std::size_t rank,
                     std::uint64_t seed, double noise = 1e-6) {
  Rng rng(seed);
  Matrix basis(m, rank);
  for (double& v : basis.flat()) v = rng.normal();
  Matrix weights(rank, n);
  for (double& v : weights.flat()) v = rng.normal();
  Matrix x = basis.multiply(weights);
  for (double& v : x.flat()) v += noise * rng.normal();
  return x;
}

// The full basis: every component attached to the spectrum-first fit.
PcaModel full_fit(const Matrix& x, bool standardize = false) {
  return attach_top_components(fit_pca_spectrum(x, standardize), x.rows());
}

TEST(Covariance, MatchesHandComputed) {
  // Two features, three samples.
  const Matrix x(2, 3, {1, 2, 3, 2, 4, 6});
  const Matrix cov = covariance(x);
  // var(f1) = 2/3, var(f2) = 8/3, cov = 4/3 (population).
  EXPECT_NEAR(cov(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 0), 4.0 / 3.0, 1e-12);
}

TEST(Covariance, SymmetricByConstruction) {
  Rng rng(1);
  Matrix x(6, 40);
  for (double& v : x.flat()) v = rng.normal();
  const Matrix cov = covariance(x);
  EXPECT_LT(cov.max_abs_diff(cov.transposed()), 1e-14);
}

// The covariance's original formula, kept as the oracle: serial row
// means, a centered copy, then ops.dot on every pair of the upper
// triangle, mirrored.
Matrix covariance_oracle(const Matrix& x) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  const simd::KernelTable& ops = simd::kernels();
  Matrix centered(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    for (const double v : x.row(i)) sum += v;
    ops.center_scale(x.row(i).data(), sum / static_cast<double>(n), 1.0,
                     centered.row(i).data(), n);
  }
  Matrix cov(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i; j < m; ++j)
      cov(i, j) = cov(j, i) =
          ops.dot(centered.row(i).data(), centered.row(j).data(), n) /
          static_cast<double>(n);
  return cov;
}

// Row blocks are paired across the triangle for balance; an odd block
// count runs its middle block once and M need not be a multiple of the
// block height. Every width must reproduce the per-pair oracle bit for
// bit, and an lvalue argument must come back untouched.
TEST(Pca, CovarianceIsBitwiseThreadCountInvariant) {
  for (const std::size_t m : {1, 3, 4, 5, 8, 9, 255, 257, 300}) {
    Rng rng(40 + m);
    Matrix x(m, 37);
    for (double& v : x.flat()) v = 3.0 + rng.normal();
    const Matrix before = x;
    const Matrix oracle = covariance_oracle(x);
    for (const unsigned threads : {1U, 2U, 3U, 4U, 8U}) {
      const ScopedThreads scope(threads);
      const Matrix cov = covariance(x);
      ASSERT_EQ(cov.rows(), m);
      ASSERT_EQ(cov.cols(), m);
      EXPECT_EQ(std::memcmp(cov.flat().data(), oracle.flat().data(),
                            m * m * sizeof(double)),
                0)
          << "M = " << m << ", " << threads << " threads";
      EXPECT_EQ(std::memcmp(x.flat().data(), before.flat().data(),
                            x.flat().size() * sizeof(double)),
                0)
          << "M = " << m << ": input modified";
    }
  }
}

TEST(Pca, EigenvalueSumEqualsTotalVariance) {
  Rng rng(2);
  Matrix x(8, 100);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = full_fit(x);
  const Matrix cov = covariance(x);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 8; ++i) trace += cov(i, i);
  for (const double l : model.eigenvalues) sum += l;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Pca, LowRankDataNeedsFewComponents) {
  const Matrix x = low_rank_data(20, 300, 3, 7);
  const PcaModel model = full_fit(x);
  // Rank-3 data: three components explain essentially everything.
  EXPECT_EQ(model.k_for_tve(0.999), 3U);
  const std::vector<double> tve = model.tve_curve();
  EXPECT_GT(tve[2], 0.99999);
}

TEST(Pca, FullRankRoundTripIsExact) {
  Rng rng(3);
  Matrix x(6, 50);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = full_fit(x);
  const Matrix scores = model.transform(x, 6);
  const Matrix back = model.inverse_transform(scores);
  EXPECT_LT(back.max_abs_diff(x), 1e-9);
}

TEST(Pca, TruncatedReconstructionErrorMatchesDiscardedVariance) {
  const std::size_t m = 10, n = 400, k = 4;
  Rng rng(4);
  Matrix x(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double s = std::pow(0.4, static_cast<double>(i));
    for (std::size_t c = 0; c < n; ++c) x(i, c) = s * rng.normal();
  }
  const PcaModel model = full_fit(x);
  const Matrix back = model.inverse_transform(model.transform(x, k));
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t c = 0; c < n; ++c) {
      const double d = back(i, c) - x(i, c);
      err += d * d;
    }
  err /= static_cast<double>(n);
  double tail = 0.0;
  for (std::size_t j = k; j < m; ++j) tail += model.eigenvalues[j];
  // MSE (summed over features) equals the discarded eigenvalue mass.
  EXPECT_NEAR(err, tail, 1e-6 * std::max(1.0, tail));
}

TEST(Pca, TveCurveIsMonotonicAndEndsAtOne) {
  const Matrix x = low_rank_data(12, 80, 5, 8, 1e-3);
  const PcaModel model = full_fit(x);
  const std::vector<double> tve = model.tve_curve();
  for (std::size_t i = 1; i < tve.size(); ++i)
    EXPECT_GE(tve[i] + 1e-15, tve[i - 1]);
  EXPECT_DOUBLE_EQ(tve.back(), 1.0);
}

TEST(Pca, ConstantDataDegeneratesGracefully) {
  Matrix x(4, 30);
  for (double& v : x.flat()) v = 2.5;
  const PcaModel model = full_fit(x);
  EXPECT_EQ(model.k_for_tve(0.999), 1U);
  const Matrix back = model.inverse_transform(model.transform(x, 1));
  EXPECT_LT(back.max_abs_diff(x), 1e-12);
}

TEST(Pca, StandardizationEqualizesFeatureWeight) {
  // One feature has 100x the scale; standardized PCA should not let it
  // dominate the first component the way raw PCA does.
  const std::size_t n = 500;
  Rng rng(5);
  Matrix x(3, n);
  for (std::size_t c = 0; c < n; ++c) {
    x(0, c) = 100.0 * rng.normal();
    x(1, c) = rng.normal();
    x(2, c) = rng.normal();
  }
  const PcaModel raw = full_fit(x, false);
  const PcaModel std_model = full_fit(x, true);
  // Raw: first component aligned almost entirely with feature 0.
  EXPECT_GT(std::abs(raw.components(0, 0)), 0.99);
  // Standardized: eigenvalues near 1 each (uncorrelated unit features).
  EXPECT_LT(std_model.eigenvalues[0], 1.5);
  EXPECT_GT(std_model.eigenvalues[2], 0.5);
}

TEST(Pca, KForTveBoundaries) {
  const Matrix x = low_rank_data(10, 60, 2, 9);
  const PcaModel model = full_fit(x);
  EXPECT_EQ(model.k_for_tve(1e-9), 1U);
  EXPECT_THROW((void)model.k_for_tve(0.0), InvalidArgument);
  EXPECT_THROW((void)model.k_for_tve(1.1), InvalidArgument);
  EXPECT_LE(model.k_for_tve(1.0), 10U);
}

TEST(Pca, TransformRejectsBadK) {
  Rng rng(10);
  Matrix x(5, 20);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = full_fit(x);
  EXPECT_THROW(model.transform(x, 0), InvalidArgument);
  EXPECT_THROW(model.transform(x, 6), InvalidArgument);
}

// The paper's Eq. 4-6: covariance in the DCT domain is A^T V_X A, so PCA
// can be done directly on DCT coefficients and the eigenvalues coincide.
TEST(Pca, DctDomainEigenvaluesMatchSpatialDomain) {
  const std::size_t m = 16, n = 200;
  Rng rng(11);
  Matrix x(m, n);
  // Correlated features: smooth profiles + noise.
  for (std::size_t c = 0; c < n; ++c) {
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t i = 0; i < m; ++i)
      x(i, c) = std::sin(0.3 * static_cast<double>(i) + phase) +
                0.1 * rng.normal();
  }

  // DCT along the feature axis (each column transformed).
  const DctPlan plan(m);
  Matrix z(m, n);
  std::vector<double> col(m), out(m);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < m; ++i) col[i] = x(i, c);
    plan.forward(col, out);
    for (std::size_t i = 0; i < m; ++i) z(i, c) = out[i];
  }

  const PcaModel spatial = full_fit(x);
  const PcaModel dct_domain = full_fit(z);
  for (std::size_t j = 0; j < m; ++j)
    EXPECT_NEAR(spatial.eigenvalues[j], dct_domain.eigenvalues[j],
                1e-8 * std::max(1.0, spatial.eigenvalues[0]))
        << "eigenvalue " << j;
}

// ---- Full basis and top-k fits -----------------------------------------

// The full-basis fit is eigen_sym on the centered covariance, bit for bit:
// the values-only spectrum equals the QL-with-vectors values, and 2k >= M
// takes eigen_topk_from's dense branch, which is eigen_sym_from.
TEST(Pca, FullBasisIsEigenSymOfTheCenteredCovariance) {
  const Matrix x = low_rank_data(40, 150, 7, 14, 1e-3);
  const PcaModel fit = full_fit(x);
  // The fit's own centering: row means summed in order, x - mean.
  Matrix centered = x;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double sum = 0.0;
    for (const double v : x.row(i)) sum += v;
    const double mean = sum / static_cast<double>(x.cols());
    for (double& v : centered.row(i)) v -= mean;
  }
  const SymmetricEigen eig = eigen_sym(covariance(centered));
  ASSERT_EQ(fit.eigenvalues.size(), eig.values.size());
  for (std::size_t j = 0; j < eig.values.size(); ++j)
    EXPECT_EQ(fit.eigenvalues[j], std::max(eig.values[j], 0.0)) << j;
  ASSERT_EQ(fit.components.rows(), eig.vectors.rows());
  ASSERT_EQ(fit.components.cols(), eig.vectors.cols());
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.rows(); ++j)
      EXPECT_EQ(fit.components(i, j), eig.vectors(i, j)) << i << "," << j;
}

TEST(PcaTopK, MatchesFullFitOnLeadingComponents) {
  // k = 6 of M = 80 takes the inverse-iteration branch: each of its
  // vectors carries the full fit's eigenvalue as its Rayleigh quotient.
  const Matrix x = low_rank_data(80, 400, 6, 12, 1e-4);
  const PcaModel full = full_fit(x);
  const PcaModel topk = attach_top_components(fit_pca_spectrum(x), 6);
  ASSERT_FALSE(topk_is_dense(80, 6));
  ASSERT_EQ(topk.components.cols(), 6U);
  EXPECT_EQ(topk.eigenvalues, full.eigenvalues);
  const Matrix cov = covariance(x);
  for (std::size_t j = 0; j < 6; ++j) {
    double rayleigh = 0.0;
    for (std::size_t a = 0; a < 80; ++a)
      for (std::size_t b = 0; b < 80; ++b)
        rayleigh += topk.components(a, j) * cov(a, b) * topk.components(b, j);
    EXPECT_NEAR(rayleigh, full.eigenvalues[j],
                1e-5 * std::max(1.0, full.eigenvalues[0]));
  }
}

// The projection's and back-projection's former row loops, kept as the
// oracle for the panel kernel: every output element is one chain over
// ascending i (projection) or j (back-projection), zero coefficients
// skipped, each term a rounded multiply then a rounded add. The
// projection's accum_centered is spelled as axpy over the centered row,
// the same d * (x - mu) per element.
Matrix project_oracle(const Matrix& basis, std::span<const double> mean,
                      std::span<const double> scale, const Matrix& x,
                      std::size_t k) {
  const simd::KernelTable& ops = simd::kernels();
  const std::size_t n = x.cols();
  Matrix scores(k, n);
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    for (std::size_t c = 0; c < n; ++c) centered[c] = x(i, c) - mean[i];
    for (std::size_t j = 0; j < k; ++j) {
      const double d = basis(i, j) / scale[i];
      if (d == 0.0) continue;
      ops.axpy(d, centered.data(), scores.row(j).data(), n);
    }
  }
  return scores;
}

Matrix back_project_oracle(const Matrix& basis, std::span<const double> mean,
                           std::span<const double> scale,
                           const Matrix& scores) {
  const simd::KernelTable& ops = simd::kernels();
  const std::size_t n = scores.cols();
  Matrix x(mean.size(), n);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    double* out = x.row(i).data();
    for (std::size_t j = 0; j < scores.rows(); ++j) {
      const double d = basis(i, j);
      if (d == 0.0) continue;
      ops.axpy(d, scores.row(j).data(), out, n);
    }
    ops.scale_shift(scale[i], mean[i], out, n);
  }
  return x;
}

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

// One projection case: an M x width basis (width > k is the progressive
// decode's wider stored basis) with a fifth of its entries exact zeros
// of either sign, optional standardization scales, and, with
// `nonfinite`, +-inf and NaN in the data rows and score rows whose
// coefficients are all zero, where they must add nothing.
void check_projection(std::size_t m, std::size_t k, std::size_t n,
                      std::size_t width, bool standardize, bool nonfinite) {
  Rng rng(1000 * m + 10 * k + n);
  Matrix basis(m, width);
  for (double& v : basis.flat()) {
    const std::uint64_t pick = rng.next_u64() % 10;
    v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.normal();
  }
  std::vector<double> mean(m);
  std::vector<double> scale(m, 1.0);
  for (double& v : mean) v = rng.normal();
  if (standardize)
    for (double& v : scale) v = 0.5 + rng.uniform();
  Matrix x(m, n);
  for (double& v : x.flat()) v = 2.0 + rng.normal();
  Matrix scores(k, n);
  for (double& v : scores.flat()) v = rng.normal();
  if (nonfinite) {
    const double bad[] = {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
    const std::size_t i = m / 2;  // a feature no component reads
    for (std::size_t j = 0; j < k; ++j) basis(i, j) = 0.0;
    for (std::size_t c = 0; c < n; ++c) x(i, c) = bad[c % 3];
    const std::size_t j = k / 2;  // a component no feature reads
    for (std::size_t r = 0; r < m; ++r) basis(r, j) = -0.0;
    for (std::size_t c = 0; c < n; ++c) scores(j, c) = bad[(c + 1) % 3];
  }
  const Matrix want_scores = project_oracle(basis, mean, scale, x, k);
  const Matrix want_x = back_project_oracle(basis, mean, scale, scores);
  for (const unsigned threads : {1U, 2U, 3U, 4U, 8U}) {
    const ScopedThreads scope(threads);
    EXPECT_TRUE(
        same_bytes(pca_project(basis, mean, scale, x, k), want_scores))
        << "project M=" << m << " k=" << k << " N=" << n
        << " width=" << width << " threads=" << threads;
    EXPECT_TRUE(
        same_bytes(pca_back_project(basis, mean, scale, scores), want_x))
        << "back-project M=" << m << " k=" << k << " N=" << n
        << " width=" << width << " threads=" << threads;
  }
}

// Every row tail (M, k mod 4), column tail (N mod 8), partial depth
// block, partial 128-column group (N = 686) and thread count must
// reproduce the row loops bit for bit.
TEST(Pca, ProjectionKernelsMatchTheRowLoop) {
  for (const std::size_t m : {1, 3, 4, 5, 9, 64, 65, 130})
    for (const std::size_t k : {1, 3, 4, 5, 8, 13})
      for (const std::size_t n : {1, 7, 8, 9, 17, 686})
        if (k <= m) check_projection(m, k, n, k, (m + k + n) % 2 == 1, false);
  // Zero coefficients against non-finite panel values.
  for (const std::size_t n : {7, 8, 17, 686}) {
    check_projection(9, 5, n, 5, false, true);
    check_projection(130, 13, n, 13, true, true);
  }
  // A basis wider than k: the progressive decode's leading columns.
  for (const std::size_t n : {9, 686}) {
    check_projection(65, 3, n, 13, false, false);
    check_projection(130, 8, n, 64, true, true);
  }
}

TEST(PcaTopK, ReconstructionMatchesFullFit) {
  const Matrix x = low_rank_data(60, 300, 4, 13, 1e-5);
  const PcaModel full = full_fit(x);
  const PcaModel topk = attach_top_components(fit_pca_spectrum(x), 4);
  const Matrix full_rec = full.inverse_transform(full.transform(x, 4));
  const Matrix topk_rec = topk.inverse_transform(topk.transform(x, 4));
  EXPECT_LT(full_rec.max_abs_diff(topk_rec), 1e-4);
}

}  // namespace
}  // namespace dpz
