// Tests for the rate/quality-targeting helpers and the fixed_k config
// path they rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rate_control.h"
#include "metrics/metrics.h"
#include "util/resource.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray band_limited_field(std::size_t rows, std::size_t cols,
                              std::uint64_t seed) {
  Rng rng(seed);
  FloatArray a({rows, cols});
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      a(i, j) = static_cast<float>(
          std::sin(0.08 * static_cast<double>(i)) *
              std::cos(0.05 * static_cast<double>(j)) +
          0.4 * std::sin(0.021 * static_cast<double>(i + 2 * j)) +
          0.001 * rng.normal());
  return a;
}

TEST(FixedK, OverridesSelection) {
  const FloatArray data = band_limited_field(64, 128, 1);
  DpzConfig config = DpzConfig::strict();
  config.fixed_k = 5;
  config.tve = 0.9999999;  // would pick a much larger k
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  EXPECT_EQ(stats.k, 5U);
  EXPECT_EQ(dpz_decompress(archive).shape(), data.shape());
}

TEST(FixedK, ClampedToFeatureCount) {
  const FloatArray data = band_limited_field(32, 64, 2);
  DpzConfig config = DpzConfig::strict();
  config.fixed_k = 100000;
  DpzStats stats;
  dpz_compress(data, config, &stats);
  EXPECT_EQ(stats.k, stats.layout.m);
}

TEST(RateControl, TargetRatioIsMetWithMaximalFidelity) {
  const FloatArray data = band_limited_field(64, 128, 3);
  const double target = 20.0;
  const RateTargetResult result =
      dpz_compress_target_ratio(data, target, DpzConfig::strict());
  ASSERT_TRUE(result.target_met);
  EXPECT_GE(result.achieved_cr, target * 0.999);

  // Maximal fidelity under the budget: one more component must break it.
  DpzConfig probe = DpzConfig::strict();
  probe.fixed_k = result.k + 1;
  DpzStats stats;
  dpz_compress(data, probe, &stats);
  EXPECT_LT(stats.cr_archive(), target);
}

TEST(RateControl, ImpossibleRatioReportsNotMet) {
  Rng rng(4);
  FloatArray noise({40, 80});
  for (float& v : noise.flat()) v = static_cast<float>(rng.normal());
  const RateTargetResult result =
      dpz_compress_target_ratio(noise, 500.0, DpzConfig::strict());
  EXPECT_FALSE(result.target_met);
  EXPECT_LT(result.achieved_cr, 500.0);
  EXPECT_EQ(dpz_decompress(result.archive).size(), noise.size());
}

TEST(RateControl, TargetPsnrIsMetWithMinimalCost) {
  const FloatArray data = band_limited_field(64, 128, 5);
  const double target = 45.0;
  const RateTargetResult result =
      dpz_compress_target_psnr(data, target, DpzConfig::strict());
  ASSERT_TRUE(result.target_met);
  EXPECT_GE(result.achieved_psnr_db, target);

  if (result.k > 1) {
    DpzConfig probe = DpzConfig::strict();
    probe.fixed_k = result.k - 1;
    const auto archive = dpz_compress(data, probe);
    const FloatArray back = dpz_decompress(archive);
    EXPECT_LT(compute_error_stats(data.flat(), back.flat()).psnr_db,
              target);
  }
}

TEST(RateControl, UnreachablePsnrReportsBestEffort) {
  const FloatArray data = band_limited_field(48, 96, 6);
  DpzConfig loose = DpzConfig::loose();  // quantizer caps the PSNR
  const RateTargetResult result =
      dpz_compress_target_psnr(data, 140.0, loose);
  EXPECT_FALSE(result.target_met);
  EXPECT_LT(result.achieved_psnr_db, 140.0);
  EXPECT_EQ(result.k, result.stats.layout.m);  // best effort = all of them
}

TEST(RateControl, RatioRejectsTrivialTarget) {
  const FloatArray data = band_limited_field(32, 64, 7);
  EXPECT_THROW(dpz_compress_target_ratio(data, 1.0), InvalidArgument);
}

TEST(RateControl, ResultsAreInternallyConsistent) {
  const FloatArray data = band_limited_field(64, 128, 8);
  const RateTargetResult result =
      dpz_compress_target_ratio(data, 10.0, DpzConfig::strict());
  EXPECT_EQ(result.k, result.stats.k);
  EXPECT_EQ(result.archive.size(), result.stats.archive_bytes);
  EXPECT_NEAR(result.achieved_cr, result.stats.cr_archive(), 1e-12);
}

// The search is part of the call, so base.limits governs it: a budget
// that one dpz_compress of the input fits, but the search's cached blocks,
// spectrum and probe archives do not, must stop it.
TEST(RateControl, SearchIsChargedToTheMemoryBudget) {
  const FloatArray data = band_limited_field(128, 256, 9);
  DpzConfig config = DpzConfig::strict();
  std::uint64_t compress_peak = 0;
  {
    ResourceLimits accounting;
    accounting.max_memory_bytes = 1ULL << 40;
    const GovernorScope scope(accounting);
    (void)dpz_compress(data, config);
    compress_peak = current_governor()->arena().peak();
  }
  config.limits.max_memory_bytes = compress_peak;
  EXPECT_NO_THROW((void)dpz_compress(data, config));
  EXPECT_THROW((void)dpz_compress_target_ratio(data, 20.0, config),
               ResourceExhausted);
  EXPECT_THROW((void)dpz_compress_target_psnr(data, 45.0, config),
               ResourceExhausted);
}

TEST(RateControl, TruncatedDctIsRejected) {
  const FloatArray data = band_limited_field(32, 64, 11);
  DpzConfig config = DpzConfig::strict();
  config.dct_keep_fraction = 0.5;
  EXPECT_THROW((void)dpz_compress_target_ratio(data, 5.0, config),
               InvalidArgument);
}

}  // namespace
}  // namespace dpz
