// Unit tests for the Algorithm 2 sampling strategy: subset picking,
// k estimation on data with known rank, the VIF gate, the CR_p band, and
// dpz_probe's agreement with the k dpz_compress selects.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dpz.h"
#include "core/sampling.h"
#include "data/datasets.h"
#include "util/rng.h"

namespace dpz {
namespace {

// Block-feature matrix with a shared low-rank structure, so every subset
// sees approximately the same k.
Matrix shared_rank_data(std::size_t m, std::size_t n, std::size_t rank,
                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix basis(m, rank);
  for (double& v : basis.flat()) v = rng.normal();
  Matrix weights(rank, n);
  for (double& v : weights.flat()) v = rng.normal();
  Matrix x = basis.multiply(weights);
  for (double& v : x.flat()) v += 1e-5 * rng.normal();
  return x;
}

Matrix white_noise_data(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(m, n);
  for (double& v : x.flat()) v = rng.normal();
  return x;
}

TEST(Sampling, DeterministicPicksAreFirstMiddleLast) {
  const Matrix x = shared_rank_data(100, 300, 3, 1);
  SamplingConfig cfg;
  cfg.subset_count = 10;
  cfg.sample_subset_count = 3;
  const SamplingReport report = run_sampling(x, cfg);
  ASSERT_EQ(report.picked_subsets.size(), 3U);
  EXPECT_EQ(report.picked_subsets[0], 0U);
  EXPECT_EQ(report.picked_subsets[1], 4U);  // (S-1)/2 with S=10
  EXPECT_EQ(report.picked_subsets[2], 9U);
}

TEST(Sampling, EstimatesKOnSharedRankData) {
  // Rank-3 shared structure: every 10-feature subset needs ~3 components,
  // so full_k ~ 30 out of M=100.
  const Matrix x = shared_rank_data(100, 400, 3, 2);
  SamplingConfig cfg;
  cfg.tve = 0.9999;
  const SamplingReport report = run_sampling(x, cfg);
  for (const std::size_t k : report.subset_ks) {
    EXPECT_GE(k, 3U);
    EXPECT_LE(k, 5U);
  }
  EXPECT_GE(report.full_k, 30U);
  EXPECT_LE(report.full_k, 50U);
}

TEST(Sampling, VifGateDistinguishesLinearity) {
  // Correlated features -> high VIF -> no standardization; white noise ->
  // low VIF -> standardization (Algorithm 2 step 2).
  const Matrix correlated = shared_rank_data(80, 500, 2, 3);
  const Matrix noise = white_noise_data(80, 500, 4);
  SamplingConfig cfg;
  cfg.vif_sampling_rate = 0.15;
  EXPECT_FALSE(run_sampling(correlated, cfg).low_linearity);
  EXPECT_TRUE(run_sampling(noise, cfg).low_linearity);
}

TEST(Sampling, CrBandUsesPaperFactorsWhenCalibrationOff) {
  const Matrix x = shared_rank_data(100, 300, 4, 5);
  SamplingConfig cfg;
  cfg.calibrate_factors = false;
  const SamplingReport report = run_sampling(x, cfg);
  const double cr12 =
      100.0 / static_cast<double>(report.full_k);
  EXPECT_NEAR(report.cr_estimate_low, cr12 * 1.9 * 1.25, 1e-9);
  EXPECT_NEAR(report.cr_estimate_high, cr12 * 2.5 * 1.25, 1e-9);
  EXPECT_LT(report.cr_estimate_low, report.cr_estimate_high);
  EXPECT_EQ(report.stage3_factor, 0.0);  // calibration did not run
}

TEST(Sampling, CalibrationMeasuresRealFactors) {
  const Matrix x = shared_rank_data(100, 300, 4, 5);
  SamplingConfig cfg;  // calibrate_factors defaults to true
  const SamplingReport report = run_sampling(x, cfg);
  // 2-byte codes: stage-3 factor pinned near 2 (f32 -> u16 + outliers).
  EXPECT_GT(report.stage3_factor, 1.5);
  EXPECT_LE(report.stage3_factor, 2.0 + 1e-9);
  EXPECT_GE(report.zlib_factor, 0.9);
  EXPECT_LT(report.cr_estimate_low, report.cr_estimate_high);
}

TEST(Sampling, CalibratedBandPredictsAchievedRatio) {
  // End-to-end: the calibrated CR_p band should bracket the ratio the
  // full pipeline actually achieves in the paper's accounting.
  Rng rng(55);
  const std::size_t m = 120, n = 360;
  Matrix basis(m, 3);
  for (double& v : basis.flat()) v = rng.normal();
  Matrix weights(3, n);
  for (double& v : weights.flat()) v = rng.normal();
  Matrix x = basis.multiply(weights);
  for (double& v : x.flat()) v += 1e-4 * rng.normal();

  SamplingConfig cfg;
  cfg.tve = 0.99999;
  const SamplingReport report = run_sampling(x, cfg);
  EXPECT_GT(report.cr_estimate_high, report.cr_estimate_low);
  EXPECT_GT(report.cr_estimate_low, 1.0);
}

TEST(Sampling, WhiteNoiseNeedsNearlyAllComponents) {
  const Matrix x = white_noise_data(60, 600, 7);
  SamplingConfig cfg;
  cfg.tve = 0.99999;
  const SamplingReport report = run_sampling(x, cfg);
  // Each 6-feature subset of white noise needs ~all its components.
  EXPECT_GT(report.k_estimate, 4.0);
}

TEST(Sampling, RejectsTooFewFeatures) {
  const Matrix x = white_noise_data(10, 50, 8);
  SamplingConfig cfg;
  cfg.subset_count = 10;  // needs >= 20 features
  EXPECT_THROW(run_sampling(x, cfg), InvalidArgument);
}

TEST(Sampling, KneeModeProducesValidK) {
  const Matrix x = shared_rank_data(100, 300, 3, 9);
  SamplingConfig cfg;
  cfg.use_knee = true;
  const SamplingReport report = run_sampling(x, cfg);
  EXPECT_GE(report.full_k, 1U);
  EXPECT_LE(report.full_k, 100U);
}

TEST(Sampling, DeterministicForSameSeed) {
  const Matrix x = shared_rank_data(100, 300, 3, 10);
  const SamplingConfig cfg;
  const SamplingReport a = run_sampling(x, cfg);
  const SamplingReport b = run_sampling(x, cfg);
  EXPECT_EQ(a.picked_subsets, b.picked_subsets);
  EXPECT_EQ(a.full_k, b.full_k);
  EXPECT_EQ(a.vifs, b.vifs);
}

// dpz_probe is compress's own Stage 1 followed by Algorithm 2, so the k
// it estimates is the k dpz_compress --sampling then uses, with and
// without DCT truncation (a probe that skipped the truncation once
// reported 104 and 87 here where compress used 87 and 77).
TEST(Sampling, ProbeKIsTheKCompressUses) {
  for (const char* name : {"Channel", "PHIS"}) {
    const Dataset ds = make_dataset(name, 0.2, 2021);
    for (const double keep : {1.0, 0.1}) {
      SCOPED_TRACE(std::string(name) + " keep " + std::to_string(keep));
      DpzConfig config;
      config.use_sampling = true;
      config.dct_keep_fraction = keep;
      DpzStats stats;
      (void)dpz_compress(ds.data, config, &stats);
      EXPECT_EQ(dpz_probe(ds.data, config).full_k, stats.k);
    }
  }
}

// HACC-x at scale 0.3 (629146 values) pads to 1024 x 1025 blocks, and
// one sampled subset's covariance reduces to a tridiagonal whose leading
// block is zero with subnormal couplings. The QL iteration threw "QL
// iteration failed to converge" there, though the default route
// compresses the same field.
TEST(Sampling, SubsetWithASubnormalNullBlockCompresses) {
  const Dataset ds = make_dataset("HACC-x", 0.3, 2021);
  DpzConfig config;
  config.use_sampling = true;
  DpzStats stats;
  const std::vector<std::uint8_t> archive =
      dpz_compress(ds.data, config, &stats);
  EXPECT_GT(stats.k, 0U);
  EXPECT_EQ(dpz_decompress(archive).size(), ds.data.size());
}

TEST(Sampling, ProbeRejectsTooFewBlocks) {
  const FloatArray data({8, 8}, std::vector<float>(64, 1.0f));
  DpzConfig config;
  config.subset_count = 10;  // needs M >= 20 blocks
  EXPECT_THROW((void)dpz_probe(data, config), InvalidArgument);
}

}  // namespace
}  // namespace dpz
