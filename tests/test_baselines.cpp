// Unit and property tests for the SZ-like and ZFP-like baselines: the
// pointwise error-bound contract (SZ), precision monotonicity (ZFP),
// round-trips across ranks and partial blocks, and format validation.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dctzlike.h"
#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "codec/zlib_codec.h"
#include "core/archive_detail.h"
#include "core/blocking.h"
#include "core/dpz.h"
#include "core/layout.h"
#include "baselines/szlike.h"
#include "baselines/zfplike.h"
#include "metrics/metrics.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray smooth_field(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray a(shape);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.01) *
                                  10.0 +
                              0.05 * rng.normal());
  return a;
}

// ---- SZ-like ---------------------------------------------------------------

class SzRankTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(SzRankTest, ErrorBoundHoldsPointwise) {
  const FloatArray data = smooth_field(GetParam(), 1);
  SzLikeConfig config;
  config.error_bound = 1e-3;
  const auto archive = szlike_compress(data, config);
  const FloatArray back = szlike_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  for (std::size_t i = 0; i < data.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(data[i]) - back[i]),
              config.error_bound * (1.0 + 1e-9))
        << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, SzRankTest,
    ::testing::Values(std::vector<std::size_t>{2000},
                      std::vector<std::size_t>{40, 60},
                      std::vector<std::size_t>{12, 15, 17}));

TEST(SzLike, SmoothDataCompressesWell) {
  const FloatArray data = smooth_field({64, 64}, 2);
  SzLikeConfig config;
  config.error_bound = 1e-2;
  const auto archive = szlike_compress(data, config);
  EXPECT_GT(compression_ratio(data.size() * 4, archive.size()), 4.0);
}

TEST(SzLike, TighterBoundCostsMoreBits) {
  const FloatArray data = smooth_field({64, 64}, 3);
  SzLikeConfig tight, loose;
  tight.error_bound = 1e-5;
  loose.error_bound = 1e-2;
  EXPECT_GT(szlike_compress(data, tight).size(),
            szlike_compress(data, loose).size());
}

TEST(SzLike, RelativeBoundResolvesAgainstRange) {
  FloatArray data({100});
  for (std::size_t i = 0; i < 100; ++i)
    data[i] = static_cast<float>(i);  // range 99
  SzLikeConfig config;
  config.relative_bound = 1e-2;
  const auto archive = szlike_compress(data, config);
  const FloatArray back = szlike_decompress(archive);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_LE(std::abs(static_cast<double>(data[i]) - back[i]),
              0.99 * (1.0 + 1e-9));
}

TEST(SzLike, WhiteNoiseDegradesToRawStorageGracefully) {
  Rng rng(4);
  FloatArray data({4096});
  for (float& v : data.flat()) v = static_cast<float>(rng.normal() * 1e6);
  SzLikeConfig config;
  config.error_bound = 1e-9;  // effectively lossless demand
  const auto archive = szlike_compress(data, config);
  const FloatArray back = szlike_decompress(archive);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_LE(std::abs(static_cast<double>(data[i]) - back[i]), 1e-9);
}

TEST(SzLike, GarbageArchiveRejected) {
  const std::vector<std::uint8_t> garbage(32, 0xEE);
  EXPECT_THROW(szlike_decompress(garbage), FormatError);
}

TEST(SzLike, Rank4Rejected) {
  FloatArray data({2, 2, 2, 2});
  EXPECT_THROW(szlike_compress(data, SzLikeConfig{}), InvalidArgument);
}

TEST(SzLike, CompressorAdapterName) {
  EXPECT_EQ(SzLikeCompressor().name(), "SZ-like");
}

// ---- DCTZ-like -----------------------------------------------------------

TEST(DctzLike, RoundTripOnSmoothData) {
  const FloatArray data = smooth_field({64, 64}, 21);
  DctzLikeConfig config;
  config.error_bound = 1e-3;
  const auto archive = dctzlike_compress(data, config);
  const FloatArray back = dctzlike_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  // Orthonormal DCT: per-coefficient bound e -> RMS error ~ e/sqrt(3).
  EXPECT_LT(std::sqrt(err.mse), config.error_bound);
  EXPECT_GT(compression_ratio(data.size() * 4, archive.size()), 2.0);
}

TEST(DctzLike, TighterBoundCostsMoreBits) {
  const FloatArray data = smooth_field({64, 64}, 22);
  DctzLikeConfig tight, loose;
  tight.error_bound = 1e-5;
  loose.error_bound = 1e-2;
  EXPECT_GT(dctzlike_compress(data, tight).size(),
            dctzlike_compress(data, loose).size());
}

// The writer always stores 2-byte codes; this frames the same field the
// way it does, but with the width flag cleared and 1-byte codes, the other
// width the reader accepts.
std::vector<std::uint8_t> narrow_code_archive(const FloatArray& data,
                                              double eb) {
  DctzLikeConfig config;
  config.error_bound = eb;
  const std::vector<std::uint8_t> wide = dctzlike_compress(data, config);

  const BlockLayout layout = choose_block_layout(data.size());
  Matrix blocks = to_blocks(data.flat(), layout);
  dct_rows(blocks);
  const QuantizedStream qs =
      quantize(blocks.flat(), {.error_bound = eb, .wide_codes = false});

  ByteWriter w;
  w.put_bytes(std::span(wide).first(4));  // magic
  w.put_u8(0);                            // 1-byte codes
  w.put_f64(eb);
  detail::put_shape(w, data.shape());
  detail::put_blocks(w, layout);
  w.put_u64(qs.outliers.size());
  w.put_u64(qs.codes.size());
  w.put_blob(zlib_compress(qs.codes));
  ByteWriter outlier_bytes;
  for (const double v : qs.outliers)
    outlier_bytes.put_f32(static_cast<float>(v));
  w.put_u64(outlier_bytes.size());
  w.put_blob(zlib_compress(outlier_bytes.bytes()));
  return w.take();
}

TEST(DctzLike, NarrowCodesSupported) {
  const FloatArray data = smooth_field({48, 48}, 23);
  const FloatArray back = dctzlike_decompress(narrow_code_archive(data, 1e-2));
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 40.0);
}

// The width flag sizes the code section: flipping it on either width is a
// format error, not a misread of the codes.
TEST(DctzLike, CodeWidthFlagMustMatchTheCodeSection) {
  const FloatArray data = smooth_field({48, 48}, 26);
  DctzLikeConfig config;
  config.error_bound = 1e-2;
  std::vector<std::uint8_t> wide = dctzlike_compress(data, config);
  ASSERT_EQ(wide[4], 1);
  wide[4] = 0;
  EXPECT_THROW(dctzlike_decompress(wide), FormatError);

  std::vector<std::uint8_t> narrow = narrow_code_archive(data, 1e-2);
  ASSERT_NO_THROW((void)dctzlike_decompress(narrow));
  narrow[4] = 1;
  EXPECT_THROW(dctzlike_decompress(narrow), FormatError);
}

TEST(DctzLike, RelativeBoundSupported) {
  const FloatArray data = smooth_field({2000}, 24);
  DctzLikeConfig config;
  config.relative_bound = 1e-4;
  const FloatArray back =
      dctzlike_decompress(dctzlike_compress(data, config));
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_LT(std::sqrt(err.mse), 1e-4 * err.value_range);
}

TEST(DctzLike, DpzBeatsItsPredecessorAtMatchedQuality) {
  // DPZ = DCTZ + the PCA stage; on data with strong cross-block
  // correlation the extra stage should pay for itself (the paper's core
  // claim). Compare paper-accounting CR at roughly matched PSNR.
  FloatArray data({96, 192});
  Rng rng(25);
  for (std::size_t i = 0; i < data.extent(0); ++i)
    for (std::size_t j = 0; j < data.extent(1); ++j)
      data(i, j) = static_cast<float>(
          std::sin(0.1 * static_cast<double>(j)) *
              (1.0 + 0.2 * std::sin(0.05 * static_cast<double>(i))) +
          0.001 * rng.normal());

  DctzLikeConfig dctz_cfg;
  dctz_cfg.error_bound = 3e-4;
  const auto dctz_archive = dctzlike_compress(data, dctz_cfg);
  const FloatArray dctz_back = dctzlike_decompress(dctz_archive);
  const double dctz_psnr =
      compute_error_stats(data.flat(), dctz_back.flat()).psnr_db;
  const double dctz_cr =
      compression_ratio(data.size() * 4, dctz_archive.size());

  DpzConfig dpz_cfg = DpzConfig::strict();
  dpz_cfg.tve = 0.999999;
  DpzStats stats;
  const auto dpz_archive = dpz_compress(data, dpz_cfg, &stats);
  const FloatArray dpz_back = dpz_decompress(dpz_archive);
  const double dpz_psnr =
      compute_error_stats(data.flat(), dpz_back.flat()).psnr_db;
  const double dpz_cr =
      compression_ratio(data.size() * 4, dpz_archive.size());

  EXPECT_GT(dpz_psnr + 20.0, dctz_psnr);  // comparable quality band
  EXPECT_GT(dpz_cr, dctz_cr) << "DPZ " << dpz_psnr << " dB @" << dpz_cr
                             << "X vs DCTZ " << dctz_psnr << " dB @"
                             << dctz_cr << "X";
}

TEST(DctzLike, GarbageArchiveRejected) {
  const std::vector<std::uint8_t> garbage(32, 0x77);
  EXPECT_THROW(dctzlike_decompress(garbage), FormatError);
}

// ---- ZFP-like ---------------------------------------------------------------

class ZfpRankTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(ZfpRankTest, HighPrecisionRoundTripIsAccurate) {
  const FloatArray data = smooth_field(GetParam(), 5);
  ZfpLikeConfig config;
  config.precision = 30;
  const auto archive = zfplike_compress(data, config);
  const FloatArray back = zfplike_decompress(archive);
  ASSERT_EQ(back.shape(), data.shape());
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_GT(err.psnr_db, 90.0);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndPartialBlocks, ZfpRankTest,
    ::testing::Values(std::vector<std::size_t>{256},
                      std::vector<std::size_t>{257},   // partial 1-D block
                      std::vector<std::size_t>{32, 32},
                      std::vector<std::size_t>{33, 35},  // partial 2-D
                      std::vector<std::size_t>{8, 8, 8},
                      std::vector<std::size_t>{9, 10, 11}));  // partial 3-D

TEST(ZfpLike, PrecisionMonotonicallyImprovesQuality) {
  const FloatArray data = smooth_field({64, 64}, 6);
  double last_psnr = -1e9;
  for (const unsigned precision : {8U, 12U, 16U, 24U}) {
    ZfpLikeConfig config;
    config.precision = precision;
    const FloatArray back =
        zfplike_decompress(zfplike_compress(data, config));
    const double psnr =
        compute_error_stats(data.flat(), back.flat()).psnr_db;
    EXPECT_GT(psnr, last_psnr) << "precision " << precision;
    last_psnr = psnr;
  }
}

TEST(ZfpLike, PrecisionControlsRate) {
  const FloatArray data = smooth_field({64, 64}, 7);
  ZfpLikeConfig low, high;
  low.precision = 8;
  high.precision = 24;
  EXPECT_LT(zfplike_compress(data, low).size(),
            zfplike_compress(data, high).size());
}

TEST(ZfpLike, FixedAccuracyModeBoundsError) {
  const FloatArray data = smooth_field({48, 48}, 8);
  ZfpLikeConfig config;
  config.mode = ZfpLikeConfig::Mode::kFixedAccuracy;
  config.tolerance = 1e-3;
  const FloatArray back = zfplike_decompress(zfplike_compress(data, config));
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  // ZFP's accuracy mode bounds error to within a small factor of the
  // tolerance; allow the transform's documented headroom.
  EXPECT_LT(err.max_abs_error, 8.0 * config.tolerance);
}

TEST(ZfpLike, AllZeroBlocksAreCheap) {
  FloatArray data({64, 64});  // all zeros
  ZfpLikeConfig config;
  config.precision = 24;
  const auto archive = zfplike_compress(data, config);
  // One flag bit per 4x4 block (+header): far below one byte per value.
  EXPECT_LT(archive.size(), 200U);
  const FloatArray back = zfplike_decompress(archive);
  for (const float v : back.flat()) EXPECT_EQ(v, 0.0F);
}

TEST(ZfpLike, ConstantFieldReconstructsClosely) {
  FloatArray data({32, 32});
  for (float& v : data.flat()) v = 3.25F;
  ZfpLikeConfig config;
  config.precision = 28;
  const FloatArray back = zfplike_decompress(zfplike_compress(data, config));
  for (const float v : back.flat()) EXPECT_NEAR(v, 3.25F, 1e-4F);
}

TEST(ZfpLike, GarbageArchiveRejected) {
  const std::vector<std::uint8_t> garbage(32, 0x11);
  EXPECT_THROW(zfplike_decompress(garbage), FormatError);
}

TEST(ZfpLike, NegativeValuesSurvive) {
  FloatArray data({64});
  for (std::size_t i = 0; i < 64; ++i)
    data[i] = static_cast<float>((i % 2 == 0 ? -1.0 : 1.0) *
                                 (1.0 + static_cast<double>(i)));
  ZfpLikeConfig config;
  config.precision = 30;
  const FloatArray back = zfplike_decompress(zfplike_compress(data, config));
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_GT(err.psnr_db, 80.0);
}

TEST(ZfpLike, CompressorAdapterName) {
  EXPECT_EQ(ZfpLikeCompressor().name(), "ZFP-like");
}

}  // namespace
}  // namespace dpz
