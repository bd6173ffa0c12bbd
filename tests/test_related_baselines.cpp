// Tests for the related-work baselines the paper's taxonomy describes:
// TTHRESH-like (tensor/HOSVD) and MGARD-like (multilevel). Each gets
// round-trips, its characteristic control knob (energy target vs
// pointwise error bound), monotonicity, and format validation.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/mgard_like.h"
#include "baselines/tthresh_like.h"
#include "metrics/metrics.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray smooth_tensor(std::vector<std::size_t> shape,
                         std::uint64_t seed) {
  Rng rng(seed);
  FloatArray a(shape);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(
        std::sin(static_cast<double>(i) * 0.013) * 5.0 +
        std::cos(static_cast<double>(i) * 0.0021) * 3.0 +
        0.01 * rng.normal());
  return a;
}

// ---- TTHRESH-like ----------------------------------------------------------

class TthreshShapeTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(TthreshShapeTest, RoundTripsAtHighEnergy) {
  const FloatArray data = smooth_tensor(GetParam(), 1);
  TthreshLikeConfig config;
  config.energy = 0.99999999;
  const auto archive = tthresh_like_compress(data, config);
  const FloatArray back = tthresh_like_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TthreshShapeTest,
    ::testing::Values(std::vector<std::size_t>{32, 48},
                      std::vector<std::size_t>{16, 16, 16},
                      std::vector<std::size_t>{12, 20, 9}));

TEST(TthreshLike, EnergyKnobControlsRateAndDistortion) {
  const FloatArray data = smooth_tensor({24, 24, 24}, 2);
  double last_psnr = -1e300;
  std::size_t last_size = 0;
  for (const double energy : {0.99, 0.9999, 0.999999}) {
    TthreshLikeConfig config;
    config.energy = energy;
    const auto archive = tthresh_like_compress(data, config);
    const FloatArray back = tthresh_like_decompress(archive);
    const double psnr =
        compute_error_stats(data.flat(), back.flat()).psnr_db;
    EXPECT_GE(psnr, last_psnr) << "energy " << energy;
    EXPECT_GE(archive.size(), last_size) << "energy " << energy;
    last_psnr = psnr;
    last_size = archive.size();
  }
}

TEST(TthreshLike, DiscardedEnergyPredictsError) {
  // Orthonormal HOSVD: kept-energy fraction e gives relative Frobenius
  // error sqrt(1 - e) of the *energy* (not the variance). Verify within
  // a factor (the f32 factor/value storage adds a little).
  const FloatArray data = smooth_tensor({20, 20, 20}, 3);
  TthreshLikeConfig config;
  config.energy = 0.999;
  const auto archive = tthresh_like_compress(data, config);
  const FloatArray back = tthresh_like_decompress(archive);

  double signal = 0.0, err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    signal += static_cast<double>(data[i]) * data[i];
    const double d = static_cast<double>(data[i]) - back[i];
    err += d * d;
  }
  const double discarded = err / signal;
  EXPECT_LT(discarded, (1.0 - config.energy) * 1.5 + 1e-6);
}

TEST(TthreshLike, Rank1Rejected) {
  FloatArray data({64});
  EXPECT_THROW(tthresh_like_compress(data, TthreshLikeConfig{}),
               InvalidArgument);
}

TEST(TthreshLike, GarbageRejected) {
  const std::vector<std::uint8_t> garbage(64, 0x99);
  EXPECT_THROW(tthresh_like_decompress(garbage), FormatError);
}

// ---- MGARD-like -------------------------------------------------------------

TEST(MgardLike, HierarchicalTransformRoundTripsExactly) {
  Rng rng(4);
  for (const std::size_t n : {2UL, 3UL, 5UL, 8UL, 17UL, 64UL, 100UL}) {
    std::vector<double> x(n), original(n);
    for (std::size_t i = 0; i < n; ++i) original[i] = x[i] = rng.normal();
    hierarchical_forward_1d(x, n, 1);
    hierarchical_inverse_1d(x, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], original[i], 1e-12) << "n=" << n << " i=" << i;
  }
}

TEST(MgardLike, SmoothSignalsProduceSmallDetailCoefficients) {
  const std::size_t n = 257;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(static_cast<double>(i) * 0.05);
  hierarchical_forward_1d(x, n, 1);
  // Finest-level details (odd indices) are second-difference sized.
  for (std::size_t i = 1; i < n - 1; i += 2)
    EXPECT_LT(std::abs(x[i]), 2e-3) << "i=" << i;
}

class MgardShapeTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(MgardShapeTest, PointwiseErrorBoundHolds) {
  const FloatArray data = smooth_tensor(GetParam(), 5);
  MgardLikeConfig config;
  config.error_bound = 1e-2;
  const auto archive = mgard_like_compress(data, config);
  const FloatArray back = mgard_like_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  for (std::size_t i = 0; i < data.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(data[i]) - back[i]),
              config.error_bound * (1.0 + 1e-6))
        << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MgardShapeTest,
    ::testing::Values(std::vector<std::size_t>{3000},
                      std::vector<std::size_t>{50, 70},
                      std::vector<std::size_t>{14, 15, 16}));

TEST(MgardLike, TighterBoundCostsMoreBits) {
  const FloatArray data = smooth_tensor({64, 64}, 6);
  MgardLikeConfig tight, loose;
  tight.error_bound = 1e-5;
  loose.error_bound = 1e-2;
  EXPECT_GT(mgard_like_compress(data, tight).size(),
            mgard_like_compress(data, loose).size());
}

TEST(MgardLike, SmoothDataCompressesWell) {
  const FloatArray data = smooth_tensor({96, 96}, 7);
  MgardLikeConfig config;
  config.relative_bound = 1e-3;
  const auto archive = mgard_like_compress(data, config);
  EXPECT_GT(compression_ratio(data.size() * 4, archive.size()), 3.0);
}

TEST(MgardLike, GarbageRejected) {
  const std::vector<std::uint8_t> garbage(48, 0x21);
  EXPECT_THROW(mgard_like_decompress(garbage), FormatError);
}

}  // namespace
}  // namespace dpz
