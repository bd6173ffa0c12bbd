// Unit tests for the statistics substrate: descriptive stats, histograms,
// polynomial/linear fitting, knee-point detection, ECR curves, and VIF.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/ecr.h"
#include "stats/entropy.h"
#include "stats/fit.h"
#include "stats/histogram.h"
#include "stats/knee.h"
#include "stats/vif.h"
#include "util/rng.h"

namespace dpz {
namespace {

// ---- descriptive ---------------------------------------------------------

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 5.0);
  EXPECT_DOUBLE_EQ(variance_of(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev_of(v), 2.0);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_of(v, 0.5), 2.5);
  EXPECT_THROW(quantile_of(v, 1.5), InvalidArgument);
}

TEST(Descriptive, BoxStatsOrdering) {
  Rng rng(1);
  std::vector<double> v(1000);
  for (double& x : v) x = rng.normal();
  const BoxStats b = box_stats(v);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_NEAR(b.median, 0.0, 0.1);
}

TEST(Descriptive, PearsonCorrelationKnownCases) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{2, 4, 6, 8, 10};
  std::vector<double> c{5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
  const std::vector<double> constant(5, 3.0);
  EXPECT_DOUBLE_EQ(pearson_correlation(a, constant), 0.0);
}

// ---- histogram -------------------------------------------------------------

TEST(Histogram, CountsFallIntoCorrectBins) {
  const std::vector<double> v{0.1, 0.1, 0.5, 0.9};
  const Histogram h(v, 2, 0.0, 1.0);
  EXPECT_EQ(h.count(0), 2U);  // 0.1, 0.1 (0.5 goes to bin 1)
  EXPECT_EQ(h.count(1), 2U);
  EXPECT_EQ(h.total(), 4U);
  EXPECT_DOUBLE_EQ(h.frequency(0), 0.5);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  const std::vector<double> v{-5.0, 5.0};
  const Histogram h(v, 4, 0.0, 1.0);
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.count(3), 1U);
}

TEST(Histogram, AutoRangedCoversData) {
  Rng rng(2);
  std::vector<double> v(500);
  for (double& x : v) x = rng.uniform(-3.0, 7.0);
  const Histogram h = Histogram::auto_ranged(v, 10);
  std::size_t total = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) total += h.count(b);
  EXPECT_EQ(total, v.size());
}

TEST(Histogram, BinCenters) {
  const std::vector<double> v{0.5};
  const Histogram h(v, 4, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 3.5);
}

TEST(Histogram, AsciiRenderingNonEmpty) {
  const std::vector<double> v{1.0, 2.0, 2.0, 3.0};
  const Histogram h(v, 3, 1.0, 3.0);
  EXPECT_FALSE(h.render_ascii().empty());
}

// ---- fitting ----------------------------------------------------------------

TEST(PolynomialFit, RecoversExactPolynomial) {
  // y = 2 - 3x + 0.5x^2 sampled on [0, 10].
  std::vector<double> xs, ys;
  for (int i = 0; i <= 20; ++i) {
    const double x = 0.5 * i;
    xs.push_back(x);
    ys.push_back(2.0 - 3.0 * x + 0.5 * x * x);
  }
  const PolynomialFit fit(xs, ys, 2);
  for (const double x : {0.3, 4.7, 9.2})
    EXPECT_NEAR(fit(x), 2.0 - 3.0 * x + 0.5 * x * x, 1e-8);
}

TEST(PolynomialFit, DerivativesMatchAnalytic) {
  std::vector<double> xs, ys;
  for (int i = 0; i <= 30; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(x * x * x);  // y' = 3x^2, y'' = 6x
  }
  const PolynomialFit fit(xs, ys, 3);
  EXPECT_NEAR(fit.derivative(1.0), 3.0, 1e-6);
  EXPECT_NEAR(fit.second_derivative(1.0), 6.0, 1e-5);
}

TEST(PolynomialFit, RejectsUnderdeterminedFit) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW(PolynomialFit(xs, ys, 2), InvalidArgument);
}

TEST(LinearInterpolant, ExactAtKnotsLinearBetween) {
  const std::vector<double> xs{0.0, 1.0, 3.0};
  const std::vector<double> ys{0.0, 2.0, 0.0};
  const LinearInterpolant f(xs, ys);
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0), 1.0);
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(f(9.0), 0.0);   // clamped
}

TEST(LinearInterpolant, RequiresIncreasingX) {
  const std::vector<double> xs{0.0, 0.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_THROW(LinearInterpolant(xs, ys), InvalidArgument);
}

TEST(LinearInterpolant, ResampleEndpoints) {
  const std::vector<double> xs{0.0, 2.0};
  const std::vector<double> ys{1.0, 5.0};
  const LinearInterpolant f(xs, ys);
  const std::vector<double> r = f.resample(5);
  ASSERT_EQ(r.size(), 5U);
  EXPECT_DOUBLE_EQ(r.front(), 1.0);
  EXPECT_DOUBLE_EQ(r.back(), 5.0);
  EXPECT_DOUBLE_EQ(r[2], 3.0);
}

// ---- knee detection ----------------------------------------------------------

std::vector<double> saturating_curve(std::size_t m, double rate) {
  // 1 - exp(-rate * k): a classic diminishing-returns curve whose knee
  // sits near 1/rate.
  std::vector<double> c(m);
  for (std::size_t i = 0; i < m; ++i)
    c[i] = 1.0 - std::exp(-rate * static_cast<double>(i + 1));
  return c;
}

TEST(Knee, DetectsKneeOfSaturatingCurve) {
  const std::vector<double> curve = saturating_curve(100, 0.15);
  const KneeResult r = detect_knee(curve, KneeFit::kFit1D);
  // Knee of 1-exp(-0.15k) is around k ~ 7-20 (curvature max region).
  EXPECT_GE(r.k, 3U);
  EXPECT_LE(r.k, 30U);
}

TEST(Knee, PolynomialFitDetectsLaterOrEqualKnee) {
  // Table II: polyn fitting trades CR (smaller k) for accuracy (larger k).
  const std::vector<double> curve = saturating_curve(100, 0.1);
  const std::size_t k_1d = detect_knee(curve, KneeFit::kFit1D).k;
  const std::size_t k_poly = detect_knee(curve, KneeFit::kFitPolyn).k;
  EXPECT_GE(k_poly + 10, k_1d);  // not wildly earlier
  EXPECT_LE(k_poly, 60U);
}

TEST(Knee, FlatCurveReturnsOne) {
  const std::vector<double> curve(50, 1.0);
  EXPECT_EQ(detect_knee(curve).k, 1U);
}

TEST(Knee, TinyCurveReturnsOne) {
  const std::vector<double> curve{0.5, 1.0};
  EXPECT_EQ(detect_knee(curve).k, 1U);
}

TEST(Knee, LinearCurveHasNoEarlyKnee) {
  // A perfectly linear curve has no curvature: the detector should not
  // pick an aggressive early knee.
  std::vector<double> curve(100);
  for (std::size_t i = 0; i < 100; ++i)
    curve[i] = static_cast<double>(i + 1) / 100.0;
  const KneeResult r = detect_knee(curve, KneeFit::kFit1D);
  EXPECT_GE(r.k, 1U);
  EXPECT_LE(r.k, 100U);
}

TEST(Knee, SharperCurveGivesSmallerK) {
  const std::size_t k_sharp = detect_knee(saturating_curve(200, 0.5)).k;
  const std::size_t k_soft = detect_knee(saturating_curve(200, 0.05)).k;
  EXPECT_LT(k_sharp, k_soft);
}

// ---- ECR ------------------------------------------------------------------

TEST(Ecr, CurveIsSortedByMagnitude) {
  const std::vector<double> coeffs{0.1, 3.0, -4.0, 0.2};
  const std::vector<double> curve = ecr_curve(coeffs);
  // Energies sorted: 16, 9, 0.04, 0.01; total 25.05.
  EXPECT_NEAR(curve[0], 16.0 / 25.05, 1e-12);
  EXPECT_NEAR(curve[1], 25.0 / 25.05, 1e-12);
  EXPECT_DOUBLE_EQ(curve[3], 1.0);
}

TEST(Ecr, ZeroInputGivesAllOnes) {
  const std::vector<double> coeffs(5, 0.0);
  const std::vector<double> curve = ecr_curve(coeffs);
  for (const double v : curve) EXPECT_DOUBLE_EQ(v, 1.0);
}

// ---- entropy ----------------------------------------------------------------

TEST(Entropy, ConstantAndEmptyAreZero) {
  const std::vector<double> constant(100, 3.0);
  EXPECT_DOUBLE_EQ(shannon_entropy(constant), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy({}), 0.0);
}

TEST(Entropy, UniformApproachesLogBins) {
  Rng rng(11);
  std::vector<double> v(200000);
  for (double& x : v) x = rng.uniform();
  EXPECT_NEAR(shannon_entropy(v, 256), 8.0, 0.05);
  EXPECT_NEAR(shannon_entropy(v, 16), 4.0, 0.02);
}

TEST(Entropy, TwoValueDistributionIsOneBit) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2 == 0 ? 0.0 : 1.0);
  EXPECT_NEAR(shannon_entropy(v, 64), 1.0, 1e-9);
}

TEST(Entropy, ConcentratedDistributionHasLowEntropy) {
  Rng rng(12);
  std::vector<double> narrow(50000), wide(50000);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = rng.normal(0.0, 0.01);
    wide[i] = rng.normal(0.0, 1.0);
  }
  // Same bin count over each distribution's own range: the Gaussian shape
  // is scale-invariant, so compare against a genuinely flatter reference.
  std::vector<double> uniform(50000);
  for (double& x : uniform) x = rng.uniform(-3.0, 3.0);
  EXPECT_LT(shannon_entropy(wide, 128), shannon_entropy(uniform, 128));
}

TEST(Entropy, HighEntropyDoesNotImplyLowVif) {
  // The paper's point: HACC-vx-like data has near-maximal value entropy
  // yet no cross-feature collinearity — entropy cannot predict what the
  // k-PCA stage removes.
  Rng rng(13);
  Matrix collinear(8, 2000);
  for (std::size_t c = 0; c < 2000; ++c) {
    const double base = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < 8; ++i)
      collinear(i, c) = base + 0.01 * rng.normal();
  }
  std::vector<double> values(collinear.flat().begin(),
                             collinear.flat().end());
  EXPECT_GT(shannon_entropy(values, 128), 5.0);  // high entropy...
  const std::vector<double> vifs = vif_of_features(collinear);
  EXPECT_GT(vifs[0], kVifCutoff);  // ...and yet highly compressible by PCA
}

// ---- VIF ------------------------------------------------------------------

TEST(Vif, IndependentFeaturesHaveVifNearOne) {
  Rng rng(3);
  Matrix x(5, 2000);
  for (double& v : x.flat()) v = rng.normal();
  const std::vector<double> vifs = vif_of_features(x);
  for (const double v : vifs) {
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 1.2);
  }
}

TEST(Vif, CollinearFeaturesHaveHighVif) {
  Rng rng(4);
  Matrix x(3, 1000);
  for (std::size_t c = 0; c < 1000; ++c) {
    const double base = rng.normal();
    x(0, c) = base;
    x(1, c) = base + 0.01 * rng.normal();  // nearly identical to feature 0
    x(2, c) = rng.normal();
  }
  const std::vector<double> vifs = vif_of_features(x);
  EXPECT_GT(vifs[0], kVifCutoff);
  EXPECT_GT(vifs[1], kVifCutoff);
  EXPECT_LT(vifs[2], 2.0);
}

TEST(Vif, ConstantFeatureReportsNeutralVif) {
  Rng rng(5);
  Matrix x(3, 500);
  for (std::size_t c = 0; c < 500; ++c) {
    x(0, c) = 7.0;  // constant
    x(1, c) = rng.normal();
    x(2, c) = rng.normal();
  }
  const std::vector<double> vifs = vif_of_features(x);
  EXPECT_DOUBLE_EQ(vifs[0], 1.0);
}

TEST(Vif, PerfectCollinearityStaysFinite) {
  Matrix x(2, 100);
  for (std::size_t c = 0; c < 100; ++c) {
    x(0, c) = static_cast<double>(c);
    x(1, c) = 2.0 * static_cast<double>(c);
  }
  const std::vector<double> vifs = vif_of_features(x);
  for (const double v : vifs) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, kVifCutoff);
  }
}

TEST(Vif, SampledVifRespectsRate) {
  Rng data_rng(6);
  Matrix x(1000, 400);
  for (double& v : x.flat()) v = data_rng.normal();
  Rng rng(7);
  const std::vector<double> vifs = sampled_vif(x, 0.05, 64, rng);
  EXPECT_EQ(vifs.size(), 50U);  // ceil(0.05 * 1000)
}

TEST(Vif, SampledVifFloorsAtSixteenFeatures) {
  // Tiny rates still probe a meaningful regression (16 features), like
  // the paper's 1% of 1800 blocks ~ 18 regressors.
  Rng data_rng(16);
  Matrix x(100, 300);
  for (double& v : x.flat()) v = data_rng.normal();
  Rng rng(17);
  EXPECT_EQ(sampled_vif(x, 0.01, 64, rng).size(), 16U);
}

TEST(Vif, SampledVifIsDeterministicInSeed) {
  Rng data_rng(8);
  Matrix x(50, 300);
  for (double& v : x.flat()) v = data_rng.normal();
  Rng a(9), b(9);
  EXPECT_EQ(sampled_vif(x, 0.1, 32, a), sampled_vif(x, 0.1, 32, b));
}

}  // namespace
}  // namespace dpz
