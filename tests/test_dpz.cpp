// Unit and integration tests for the DPZ compressor itself: archive
// round-trips across configurations, scheme semantics, accounting
// invariants, tampering detection, and the analysis evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codec/bytes.h"
#include "codec/zlib_codec.h"
#include "core/analysis.h"
#include "core/archive_detail.h"
#include "core/dpz.h"
#include "core/layout.h"
#include "core/verify.h"
#include "data/datasets.h"
#include "linalg/eigen_sym.h"
#include "metrics/metrics.h"
#include "synthetic_2d.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray smooth_2d(std::size_t rows, std::size_t cols,
                     std::uint64_t seed = 3) {
  Rng rng(seed);
  FloatArray a({rows, cols});
  const double fx = rng.uniform(1.0, 3.0), fy = rng.uniform(1.0, 3.0);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      a(i, j) = static_cast<float>(
          std::sin(fx * static_cast<double>(i) / rows * 6.28) *
              std::cos(fy * static_cast<double>(j) / cols * 6.28) +
          0.002 * rng.normal());
  return a;
}

struct SchemeCase {
  DpzScheme scheme;
  double min_psnr;
};

class DpzSchemeTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(DpzSchemeTest, RoundTripMeetsQualityFloor) {
  const FloatArray data = smooth_2d(48, 96);
  DpzConfig config;
  config.scheme = GetParam().scheme;
  config.tve = 0.9999;

  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  const FloatArray back = dpz_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());

  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_GT(err.psnr_db, GetParam().min_psnr);
  EXPECT_GT(stats.cr_archive(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    BothSchemes, DpzSchemeTest,
    ::testing::Values(SchemeCase{DpzScheme::kLoose, 35.0},
                      SchemeCase{DpzScheme::kStrict, 45.0}));

TEST(Dpz, StrictSchemeIsMoreAccurate) {
  const FloatArray data = smooth_2d(48, 96, 5);
  DpzConfig loose = DpzConfig::loose();
  DpzConfig strict = DpzConfig::strict();
  loose.tve = strict.tve = 0.99999;

  const FloatArray back_l = dpz_decompress(dpz_compress(data, loose));
  const FloatArray back_s = dpz_decompress(dpz_compress(data, strict));
  const double psnr_l =
      compute_error_stats(data.flat(), back_l.flat()).psnr_db;
  const double psnr_s =
      compute_error_stats(data.flat(), back_s.flat()).psnr_db;
  EXPECT_GE(psnr_s, psnr_l);
}

TEST(Dpz, TighterTveImprovesAccuracy) {
  const FloatArray data = smooth_2d(40, 80, 7);
  DpzConfig config = DpzConfig::strict();
  std::vector<double> psnrs;
  for (const double tve : {0.999, 0.99999, 0.9999999}) {
    config.tve = tve;
    const FloatArray back = dpz_decompress(dpz_compress(data, config));
    psnrs.push_back(compute_error_stats(data.flat(), back.flat()).psnr_db);
  }
  EXPECT_LE(psnrs[0], psnrs[1] + 1.0);
  EXPECT_LE(psnrs[1], psnrs[2] + 1.0);
}

TEST(Dpz, WorksOn1dAnd3dShapes) {
  Rng rng(11);
  FloatArray one_d({4096});
  for (std::size_t i = 0; i < one_d.size(); ++i)
    one_d[i] = static_cast<float>(
        std::sin(static_cast<double>(i) * 0.01) + 0.002 * rng.normal());
  FloatArray three_d({16, 16, 16});
  for (std::size_t i = 0; i < three_d.size(); ++i)
    three_d[i] = static_cast<float>(
        std::cos(static_cast<double>(i) * 0.002) + 0.002 * rng.normal());

  for (const FloatArray* data : {&one_d, &three_d}) {
    DpzConfig config = DpzConfig::strict();
    config.tve = 0.99999;
    const FloatArray back = dpz_decompress(dpz_compress(*data, config));
    EXPECT_EQ(back.shape(), data->shape());
    EXPECT_GT(compute_error_stats(data->flat(), back.flat()).psnr_db, 30.0);
  }
}

TEST(Dpz, KneePointSelectionRoundTrips) {
  const FloatArray data = smooth_2d(40, 80, 13);
  DpzConfig config = DpzConfig::loose();
  config.selection = KSelectionMethod::kKneePoint;
  for (const KneeFit fit : {KneeFit::kFit1D, KneeFit::kFitPolyn}) {
    config.knee_fit = fit;
    DpzStats stats;
    const auto archive = dpz_compress(data, config, &stats);
    const FloatArray back = dpz_decompress(archive);
    EXPECT_GE(stats.k, 1U);
    EXPECT_LE(stats.k, stats.layout.m);
    EXPECT_EQ(back.size(), data.size());
  }
}

TEST(Dpz, SamplingPathRoundTrips) {
  const FloatArray data = smooth_2d(64, 128, 17);
  DpzConfig config = DpzConfig::strict();
  config.use_sampling = true;
  config.tve = 0.99999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  const FloatArray back = dpz_decompress(archive);
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 30.0);
  EXPECT_GT(stats.vif_median, 0.0);  // the probe ran
}

TEST(Dpz, SamplingKTracksFullPipelineK) {
  const FloatArray data = smooth_2d(64, 128, 19);
  DpzConfig full = DpzConfig::strict();
  full.tve = 0.99999;
  DpzConfig sampled = full;
  sampled.use_sampling = true;

  DpzStats full_stats, sampled_stats;
  dpz_compress(data, full, &full_stats);
  dpz_compress(data, sampled, &sampled_stats);
  // The estimate should land within a small factor of the exact k.
  EXPECT_GT(sampled_stats.k * 4, full_stats.k);
  EXPECT_LT(sampled_stats.k, full_stats.k * 4 + 8);
}

TEST(Dpz, SamplingAndDefaultRoutesShareTheBasisAtEqualK) {
  // Algorithm 2 differs from Algorithm 1 only in how it picks k: at the
  // same k both routes solve the same covariance with the same top-k
  // solver, so the archives match byte for byte. M = 160 and k = 6 put
  // the solve on the inverse-iteration side of the dense fallback.
  const FloatArray data = synthetic_2d(256, 200, 5);
  DpzConfig config = DpzConfig::strict();
  config.standardize = 0;
  config.fixed_k = 6;
  DpzStats stats;
  const auto default_archive = dpz_compress(data, config, &stats);
  ASSERT_EQ(stats.layout.m, 160U);
  config.use_sampling = true;
  EXPECT_EQ(dpz_compress(data, config), default_archive);

  // Rank-deficient: every 320-value block is a_i u + b_i w with small
  // integers (exact in f32), so the covariance has rank 2 and k = 6 reads
  // rounding residues of the spectrum; 2k < M keeps inverse iteration.
  std::vector<float> values(256 * 200);
  for (std::size_t t = 0; t < values.size(); ++t) {
    const double i = static_cast<double>(t / 320);
    const double c = static_cast<double>(t % 320);
    values[t] = static_cast<float>(
        (std::fmod(i, 7.0) - 3.0) * (std::fmod(c, 11.0) - 5.0) +
        (std::fmod(i, 5.0) - 2.0) * (std::fmod(c, 13.0) - 6.0));
  }
  const FloatArray rank2({256, 200}, std::move(values));
  config.use_sampling = false;
  const auto rank2_default = dpz_compress(rank2, config, &stats);
  ASSERT_EQ(stats.layout.n, 320U);
  ASSERT_EQ(stats.k, 6U);
  ASSERT_FALSE(topk_is_dense(stats.layout.m, stats.k));
  config.use_sampling = true;
  EXPECT_EQ(dpz_compress(rank2, config), rank2_default);
}

TEST(Dpz, StatsAccountingInvariants) {
  const FloatArray data = smooth_2d(48, 96, 23);
  DpzConfig config = DpzConfig::loose();
  config.tve = 0.99999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);

  EXPECT_EQ(stats.original_bytes, data.size() * 4);
  EXPECT_EQ(stats.archive_bytes, archive.size());
  EXPECT_GT(stats.cr_stage12(), 1.0);
  EXPECT_GT(stats.cr_stage3(), 1.0);
  EXPECT_GT(stats.cr_zlib(), 0.5);
  EXPECT_LE(stats.k, stats.layout.m);
  EXPECT_DOUBLE_EQ(
      stats.cr_stage12(),
      static_cast<double>(stats.layout.m) / static_cast<double>(stats.k));
  // Stage timers recorded every compress stage, and only those.
  for (const obs::Span s :
       {obs::Span::kStage1Dct, obs::Span::kStage2Pca, obs::Span::kProject,
        obs::Span::kStage3Quantize, obs::Span::kZlibEncode})
    EXPECT_GT(stats.timers.seconds(s), 0.0) << obs::span_name(s);
  for (const obs::Span s :
       {obs::Span::kDecodeSections, obs::Span::kDecodeDequantize,
        obs::Span::kDecodeBackproject, obs::Span::kDecodeIdct})
    EXPECT_EQ(stats.timers.seconds(s), 0.0) << obs::span_name(s);
}

TEST(Dpz, LooseCodesAreSmallerThanStrict) {
  const FloatArray data = smooth_2d(48, 96, 29);
  DpzConfig loose = DpzConfig::loose();
  DpzConfig strict = DpzConfig::strict();
  loose.tve = strict.tve = 0.99999;
  DpzStats ls, ss;
  dpz_compress(data, loose, &ls);
  dpz_compress(data, strict, &ss);
  ASSERT_EQ(ls.k, ss.k);
  // 1-byte codes: stage-3 CR roughly doubles the 2-byte scheme's, minus
  // outlier overhead (Table III's DPZ-l > 2X vs DPZ-s ~ 2X pattern).
  EXPECT_GT(ls.cr_stage3(), ss.cr_stage3());
}

TEST(Dpz, ExplicitOverridesRespected) {
  const FloatArray data = smooth_2d(32, 64, 31);
  DpzConfig config;
  config.error_bound = 5e-3;
  config.standardize = 1;
  config.tve = 0.9999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  EXPECT_TRUE(stats.standardized);
  const FloatArray back = dpz_decompress(archive);
  EXPECT_EQ(back.size(), data.size());
}

TEST(Dpz, RejectsTinyInput) {
  FloatArray tiny({4});
  EXPECT_THROW(dpz_compress(tiny, DpzConfig{}), InvalidArgument);
}

TEST(Dpz, DecompressRejectsGarbage) {
  const std::vector<std::uint8_t> garbage(64, 0xCD);
  EXPECT_THROW(dpz_decompress(garbage), FormatError);
}

TEST(Dpz, DecompressRejectsTruncatedArchive) {
  const FloatArray data = smooth_2d(32, 64, 37);
  auto archive = dpz_compress(data, DpzConfig::loose());
  archive.resize(archive.size() / 2);
  EXPECT_THROW(dpz_decompress(archive), Error);
}

TEST(Dpz, DecompressRejectsCorruptedPayload) {
  const FloatArray data = smooth_2d(32, 64, 41);
  auto archive = dpz_compress(data, DpzConfig::loose());
  archive[archive.size() - 8] ^= 0xFF;
  EXPECT_THROW(dpz_decompress(archive), Error);
}

TEST(Dpz, CompressorInterfaceAdapter) {
  DpzCompressor comp(DpzConfig::strict());
  EXPECT_EQ(comp.name(), "DPZ-s");
  const FloatArray data = smooth_2d(32, 64, 43);
  const auto archive = comp.compress(data);
  EXPECT_EQ(archive, dpz_compress(data, DpzConfig::strict()));
  const FloatArray back = comp.decompress(archive);
  EXPECT_EQ(back.size(), data.size());
  EXPECT_EQ(DpzCompressor(DpzConfig::loose()).name(), "DPZ-l");
}

// ---- Stored-raw fallback ----------------------------------------------------

TEST(DpzStored, ExpandingPipelineFallsBackToStoredArchive) {
  Rng rng(61);
  FloatArray noise({20000});
  for (float& v : noise.flat()) v = static_cast<float>(rng.normal());

  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;   // k ~ M on white noise
  config.error_bound = 1e-12;  // every score escapes: guaranteed expansion
  DpzStats stats;
  const auto archive = dpz_compress(noise, config, &stats);
  EXPECT_TRUE(stats.stored_raw);
  EXPECT_LE(archive.size(), noise.size() * 4 + 128);

  // Stored archives are bit-exact.
  const FloatArray back = dpz_decompress(archive);
  for (std::size_t i = 0; i < noise.size(); ++i)
    EXPECT_EQ(noise[i], back[i]);
}

TEST(DpzStored, InspectIdentifiesStoredArchives) {
  Rng rng(67);
  FloatArray noise({5000});
  for (float& v : noise.flat()) v = static_cast<float>(rng.normal());
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;
  config.error_bound = 1e-12;
  const auto archive = dpz_compress(noise, config);
  const DpzArchiveInfo info = dpz_inspect(archive);
  EXPECT_TRUE(info.stored_raw);
  EXPECT_EQ(info.shape, (std::vector<std::size_t>{5000}));
}

// ---- dpz_inspect -------------------------------------------------------------

TEST(DpzInspect, ReportsHeaderFields) {
  const FloatArray data = smooth_2d(48, 96, 71);
  DpzConfig config = DpzConfig::loose();
  config.tve = 0.9999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);

  const DpzArchiveInfo info = dpz_inspect(archive);
  EXPECT_FALSE(info.stored_raw);
  EXPECT_FALSE(info.wide_codes);
  EXPECT_DOUBLE_EQ(info.error_bound, 1e-3);
  EXPECT_EQ(info.shape, (std::vector<std::size_t>{48, 96}));
  EXPECT_EQ(info.layout.m, stats.layout.m);
  EXPECT_EQ(info.layout.n, stats.layout.n);
  EXPECT_EQ(info.k, stats.k);
  EXPECT_EQ(info.outlier_count, stats.outlier_count);
  EXPECT_EQ(info.archive_bytes, archive.size());
}

TEST(DpzInspect, RejectsGarbage) {
  const std::vector<std::uint8_t> garbage(32, 0x3C);
  EXPECT_THROW(dpz_inspect(garbage), FormatError);
}

// ---- Progressive (partial) decompression -------------------------------------

TEST(DpzPartial, FidelityImprovesWithMoreComponents) {
  const FloatArray data = smooth_2d(64, 128, 73);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  ASSERT_GE(stats.k, 3U);

  double last_psnr = -1e300;
  for (const std::size_t k : {std::size_t{1}, stats.k / 2, stats.k}) {
    const FloatArray partial = dpz_decompress(archive, k);
    const double psnr =
        compute_error_stats(data.flat(), partial.flat()).psnr_db;
    EXPECT_GE(psnr, last_psnr - 0.5) << "k = " << k;
    last_psnr = psnr;
  }
}

TEST(DpzPartial, FullAndOversizedRequestsMatchDefault) {
  const FloatArray data = smooth_2d(48, 96, 79);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);

  const FloatArray full = dpz_decompress(archive);
  const FloatArray same = dpz_decompress(archive, stats.k);
  const FloatArray oversized = dpz_decompress(archive, stats.k + 100);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], same[i]);
    EXPECT_EQ(full[i], oversized[i]);
  }
}

TEST(DpzPartial, SingleComponentStillHasShape) {
  const FloatArray data = smooth_2d(48, 96, 83);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  const auto archive = dpz_compress(data, config);
  const FloatArray partial = dpz_decompress(archive, 1);
  EXPECT_EQ(partial.shape(), data.shape());
}

TEST(DpzPartial, EveryPrefixOfALooseArchiveWithOutliersDecodes) {
  // DPZ-l's 1-byte codes escape a score tail to the outlier section, so
  // each component prefix must keep exactly the outliers its codes use.
  Rng rng(97);
  FloatArray data = smooth_2d(64, 128, 97);
  for (std::size_t i = 0; i < data.size(); i += 37)
    data[i] += static_cast<float>(rng.normal());
  DpzConfig config = DpzConfig::loose();
  config.tve = 0.999999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  ASSERT_FALSE(stats.stored_raw);
  ASSERT_GT(stats.outlier_count, 0U);
  ASSERT_GE(stats.k, 2U);

  for (std::size_t k = 1; k <= stats.k; ++k)
    EXPECT_EQ(dpz_decompress(archive, k).shape(), data.shape())
        << "k = " << k;
}

// ---- DCT truncation (future-work pre-filter) ----------------------------------

TEST(DpzTruncation, ReducesKAtFixedTve) {
  // Zeroing the high-frequency tail means the covariance has less noise
  // to explain, so the same TVE needs fewer components.
  Rng rng(89);
  FloatArray data({64, 128});
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(
        std::sin(static_cast<double>(i) * 0.01) + 0.05 * rng.normal());

  DpzConfig plain = DpzConfig::strict();
  plain.tve = 0.99999;
  DpzConfig truncated = plain;
  truncated.dct_keep_fraction = 0.25;

  DpzStats plain_stats, trunc_stats;
  dpz_compress(data, plain, &plain_stats);
  dpz_compress(data, truncated, &trunc_stats);
  EXPECT_LT(trunc_stats.k, plain_stats.k);
}

TEST(DpzTruncation, RoundTripStaysReasonable) {
  const FloatArray data = smooth_2d(48, 96, 97);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  config.dct_keep_fraction = 0.5;
  const auto archive = dpz_compress(data, config);
  const FloatArray back = dpz_decompress(archive);
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 30.0);
}

TEST(DpzTruncation, RejectsInvalidFraction) {
  const FloatArray data = smooth_2d(32, 64, 101);
  DpzConfig config;
  config.dct_keep_fraction = 0.0;
  EXPECT_THROW(dpz_compress(data, config), InvalidArgument);
  config.dct_keep_fraction = 1.5;
  EXPECT_THROW(dpz_compress(data, config), InvalidArgument);
}

// ---- Double-precision pipeline ------------------------------------------------

DoubleArray smooth_2d_f64(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  Rng rng(seed);
  DoubleArray a({rows, cols});
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      a(i, j) = std::sin(2.0 * static_cast<double>(i) / rows * 6.28) *
                    std::cos(1.5 * static_cast<double>(j) / cols * 6.28) +
                1e-4 * rng.normal();
  return a;
}

TEST(DpzF64, RoundTripPreservesShapeAndQuality) {
  const DoubleArray data = smooth_2d_f64(48, 96, 3);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  const DoubleArray back = dpz_decompress_f64(archive);
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 45.0);
  EXPECT_EQ(stats.original_bytes, data.size() * sizeof(double));
}

TEST(DpzF64, InspectReportsDoublePrecision) {
  const DoubleArray data = smooth_2d_f64(32, 64, 5);
  const auto archive = dpz_compress(data, DpzConfig::strict());
  EXPECT_TRUE(dpz_inspect(archive).double_precision);

  const FloatArray fdata = smooth_2d(32, 64, 5);
  const auto farchive = dpz_compress(fdata, DpzConfig::strict());
  EXPECT_FALSE(dpz_inspect(farchive).double_precision);
}

TEST(DpzF64, PrecisionMismatchRejected) {
  const DoubleArray data = smooth_2d_f64(32, 64, 7);
  const auto archive = dpz_compress(data, DpzConfig::strict());
  EXPECT_THROW(dpz_decompress(archive), FormatError);

  const FloatArray fdata = smooth_2d(32, 64, 7);
  const auto farchive = dpz_compress(fdata, DpzConfig::strict());
  EXPECT_THROW(dpz_decompress_f64(farchive), FormatError);
}

TEST(DpzF64, StoredFallbackIsBitExact) {
  Rng rng(9);
  DoubleArray noise({8192});
  for (double& v : noise.flat()) v = rng.normal();
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;
  config.error_bound = 1e-15;  // force the stored fallback
  DpzStats stats;
  const auto archive = dpz_compress(noise, config, &stats);
  ASSERT_TRUE(stats.stored_raw);
  const DoubleArray back = dpz_decompress_f64(archive);
  for (std::size_t i = 0; i < noise.size(); ++i)
    EXPECT_EQ(noise[i], back[i]);
}

TEST(DpzF64, PartialDecodeWorks) {
  const DoubleArray data = smooth_2d_f64(48, 96, 11);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  const DoubleArray partial = dpz_decompress_f64(archive, 1);
  EXPECT_EQ(partial.shape(), data.shape());
}

TEST(DpzF64, PrecisionExceedsSinglePrecisionFloor) {
  // A rank-1 field: k = 1 explains everything, so reconstruction error is
  // purely quantization + stored-precision noise. With a tiny error bound
  // the scores mostly escape as exact f64 outliers, and the PSNR lands
  // far beyond what float-cast outliers (~1e-7 relative) could reach.
  DoubleArray data({48, 96});
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 96; ++j)
      data(i, j) = (1.0 + std::sin(0.13 * static_cast<double>(i))) *
                   std::cos(0.07 * static_cast<double>(j));

  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99;
  config.error_bound = 1e-9;
  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  ASSERT_FALSE(stats.stored_raw);
  ASSERT_GT(stats.outlier_count, 0U);
  const DoubleArray back = dpz_decompress_f64(archive);
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_GT(err.psnr_db, 120.0);
}

TEST(Dpz, Rank4RoundTrips) {
  Rng rng(103);
  FloatArray data({8, 8, 8, 16});
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(
        std::sin(static_cast<double>(i) * 0.004) + 0.002 * rng.normal());
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999;
  const auto archive = dpz_compress(data, config);
  const FloatArray back = dpz_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 30.0);
  EXPECT_EQ(dpz_inspect(archive).shape,
            (std::vector<std::size_t>{8, 8, 8, 16}));
}

// ---- Ablation hooks ----------------------------------------------------------

TEST(DpzAnalysisHooks, ForcedLayoutIsRespected) {
  const FloatArray data = smooth_2d(48, 96, 107);  // total 4608
  BlockLayout layout;
  layout.m = 36;
  layout.n = 128;
  layout.original_total = data.size();
  layout.padded = false;
  DpzAnalysis analysis(data, false, layout);
  EXPECT_EQ(analysis.layout().m, 36U);
  EXPECT_EQ(analysis.layout().n, 128U);

  QuantizerConfig qcfg;
  qcfg.error_bound = 1e-4;
  qcfg.wide_codes = true;
  const auto ev = analysis.evaluate(analysis.k_for_tve(0.9999), qcfg);
  EXPECT_GT(ev.stage3_error.psnr_db, 30.0);

  // The evaluated archive is a real one in the forced geometry.
  const DpzArchiveInfo info = dpz_inspect(ev.archive);
  EXPECT_EQ(info.layout.m, 36U);
  EXPECT_EQ(info.layout.n, 128U);
  const FloatArray back = dpz_decompress(ev.archive);
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_TRUE(std::equal(back.flat().begin(), back.flat().end(),
                         ev.reconstructed.flat().begin()));
}

TEST(DpzAnalysisHooks, ForcedLayoutMustCoverInput) {
  const FloatArray data = smooth_2d(48, 96, 109);
  BlockLayout layout;
  layout.m = 10;
  layout.n = 10;  // 100 << 4608
  layout.original_total = data.size();
  EXPECT_THROW(DpzAnalysis(data, false, layout), InvalidArgument);
}

TEST(DpzAnalysisHooks, SigmaScaleOverrideTradesOutliersForPrecision) {
  const FloatArray data = smooth_2d(64, 128, 113);
  DpzAnalysis analysis(data);
  const std::size_t k = analysis.k_for_tve(0.99999);
  QuantizerConfig qcfg;
  qcfg.error_bound = 1e-3;
  qcfg.wide_codes = false;

  const auto narrow = analysis.evaluate(k, qcfg, 6, 2.0);
  const auto wide = analysis.evaluate(k, qcfg, 6, 32.0);
  // Narrow coverage escapes more outliers but quantizes finer.
  EXPECT_GT(narrow.accounting.outlier_count,
            wide.accounting.outlier_count);
  EXPECT_GE(narrow.stage3_error.psnr_db, wide.stage3_error.psnr_db);
}

// ---- DpzAnalysis -----------------------------------------------------------

// evaluate(k) IS dpz_compress at fixed_k = k: the same archive bytes and
// the same decoded floats, with no tolerance. 128 x 256 blocks into
// M = 128, so k < 64 takes eigen_topk_from's inverse iteration and
// k >= 64 its dense solve; the k order grows and shrinks each branch's
// cached vectors.
TEST(DpzAnalysis, EvaluationMatchesRealCompressor) {
  const FloatArray data = smooth_2d(128, 256, 47);
  for (const int standardize : {0, 1}) {
    DpzAnalysis analysis(data, standardize != 0);
    ASSERT_EQ(analysis.layout().m, 128U);
    for (DpzConfig config : {DpzConfig::loose(), DpzConfig::strict()}) {
      config.standardize = standardize;
      QuantizerConfig qcfg;
      qcfg.error_bound = config.effective_error_bound();
      qcfg.wide_codes = config.effective_wide_codes();
      for (const std::size_t k : {100, 5, 40, 64, 2, 63}) {
        SCOPED_TRACE("standardize " + std::to_string(standardize) +
                     ", wide " + std::to_string(qcfg.wide_codes) +
                     ", k " + std::to_string(k));
        config.fixed_k = k;
        DpzStats stats;
        const auto archive = dpz_compress(data, config, &stats);
        const auto ev = analysis.evaluate(k, qcfg, config.zlib_level);
        EXPECT_EQ(ev.archive, archive);
        EXPECT_EQ(ev.accounting.archive_bytes, stats.archive_bytes);
        EXPECT_EQ(ev.accounting.side_bytes, stats.side_bytes);
        EXPECT_EQ(ev.accounting.zlib_payload_bytes, stats.zlib_payload_bytes);
        EXPECT_EQ(ev.accounting.stage3_bytes, stats.stage3_bytes);
        EXPECT_EQ(ev.accounting.outlier_count, stats.outlier_count);
        EXPECT_EQ(ev.accounting.stored_raw, stats.stored_raw);
        const FloatArray real = dpz_decompress(archive);
        EXPECT_TRUE(std::equal(real.flat().begin(), real.flat().end(),
                               ev.reconstructed.flat().begin()));
      }
    }
  }
}

// The per-branch cache relies on eigen_topk_from being prefix-stable
// within a branch: vectors solved at a larger k must equal, bit for bit,
// the compressor's own solve at the smaller k.
TEST(DpzAnalysis, CachedBasisMatchesFreshSolve) {
  const FloatArray data = smooth_2d(128, 256, 61);
  DpzAnalysis analysis(data);
  ASSERT_EQ(analysis.layout().m, 128U);
  (void)analysis.model(63);   // largest inverse-iteration k
  (void)analysis.model(128);  // dense branch
  for (const std::size_t k : {1, 17, 62, 63, 64, 90, 128}) {
    SCOPED_TRACE("k " + std::to_string(k));
    const PcaModel fresh = attach_top_components(
        fit_pca_spectrum(analysis.dct_blocks()), k);
    const PcaModel cached = analysis.model(k);
    ASSERT_EQ(cached.components.cols(), k);
    EXPECT_TRUE(std::equal(cached.components.flat().begin(),
                           cached.components.flat().end(),
                           fresh.components.flat().begin(),
                           fresh.components.flat().end()));
  }
}

TEST(DpzAnalysis, ExactScoresBeatQuantizedScores) {
  const FloatArray data = smooth_2d(48, 96, 53);
  DpzAnalysis analysis(data);
  QuantizerConfig qcfg;
  qcfg.error_bound = 1e-3;
  qcfg.wide_codes = false;
  const std::size_t k = analysis.k_for_tve(0.99999);
  const auto ev = analysis.evaluate(k, qcfg);
  const ErrorStats exact =
      compute_error_stats(data.flat(), analysis.reconstruct_exact(k).flat());
  EXPECT_GE(exact.psnr_db, ev.stage3_error.psnr_db - 1e-9);
}

TEST(DpzAnalysis, TveCurveDrivesK) {
  const FloatArray data = smooth_2d(48, 96, 59);
  const DpzAnalysis analysis(data);
  EXPECT_LE(analysis.k_for_tve(0.999), analysis.k_for_tve(0.9999999));
  EXPECT_GE(analysis.k_for_knee(KneeFit::kFit1D), 1U);
}

// A re-encode outside the writer (a profiling replay, say) reproduces the
// side section only through the writer's own rule: put_side's raw bytes,
// deflated by plane over the tail that put_side reports. A whole-section
// zlib_compress of the same raw bytes is a different, valid stream.
TEST(DpzSideSection, RedeflatesToItsStoredChecksum) {
  const FloatArray data = smooth_2d(48, 96);
  for (const int standardize : {0, 1}) {
    DpzConfig config;
    config.standardize = standardize;
    const std::vector<std::uint8_t> archive = dpz_compress(data, config);
    const auto layout = detail::parse_layout<detail::DpzLayout>(archive);
    const DpzArchiveInfo& info = layout.info;
    ASSERT_EQ(info.standardized, standardize == 1);
    const std::vector<std::uint8_t> raw =
        detail::get_section(archive, layout.sections[1]);
    const detail::SideData side = detail::deserialize_side(
        raw, info.layout.m, info.k, info.standardized);

    ByteWriter rebuilt;
    const std::size_t basis_bytes =
        detail::put_side(rebuilt, side, info.standardized);
    ASSERT_TRUE(std::ranges::equal(rebuilt.bytes(), raw));
    EXPECT_EQ(basis_bytes, info.layout.m * info.k * sizeof(float));

    const std::uint32_t stored = verify_archive(archive).sections[1].stored_crc;
    EXPECT_EQ(detail::section_crc(raw.size(),
                                  zlib_compress_planes(
                                      raw, raw.size() - basis_bytes,
                                      config.zlib_level)),
              stored);
    EXPECT_NE(detail::section_crc(raw.size(),
                                  zlib_compress(raw, config.zlib_level)),
              stored);
  }
}

}  // namespace
}  // namespace dpz
