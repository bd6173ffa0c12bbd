// Property-based sweeps over the full compressor grid: every combination
// of (shape class, scheme, selection method, sampling) must round-trip
// with a self-consistent archive, monotone quality behavior, and intact
// invariants. These tests are deliberately broad rather than deep — each
// configuration exercises a different combination of code paths (layout
// divisor vs padding, knee vs TVE, dense vs inverse-iteration top-k
// solve, 1- vs 2-byte codes).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/dctzlike.h"
#include "baselines/szlike.h"
#include "baselines/zfplike.h"
#include "core/dpz.h"
#include "metrics/metrics.h"
#include "util/rng.h"

namespace dpz {
namespace {

enum class ShapeClass {
  k1dPowerOfTwo,   // 4096
  k1dOddDivisor,   // 6000 (divisor-pair path)
  k1dPadded,       // 5003 (prime: padding fallback)
  k2dRect,         // 48 x 112
  k3dCube,         // 18 x 18 x 18
};

FloatArray make_field(ShapeClass shape_class, std::uint64_t seed) {
  std::vector<std::size_t> shape;
  switch (shape_class) {
    case ShapeClass::k1dPowerOfTwo: shape = {4096}; break;
    case ShapeClass::k1dOddDivisor: shape = {6000}; break;
    case ShapeClass::k1dPadded: shape = {5003}; break;
    case ShapeClass::k2dRect: shape = {48, 112}; break;
    case ShapeClass::k3dCube: shape = {18, 18, 18}; break;
  }
  FloatArray a(shape);
  Rng rng(seed);
  const double f = rng.uniform(0.005, 0.02);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(f * static_cast<double>(i)) +
                              0.5 * std::cos(3.1 * f * static_cast<double>(i)) +
                              0.003 * rng.normal());
  return a;
}

using PipelineParams =
    std::tuple<ShapeClass, DpzScheme, KSelectionMethod, bool /*sampling*/>;

class PipelineGridTest : public ::testing::TestWithParam<PipelineParams> {};

TEST_P(PipelineGridTest, RoundTripInvariantsHold) {
  const auto [shape_class, scheme, selection, sampling] = GetParam();
  const FloatArray data = make_field(shape_class, 42);

  DpzConfig config;
  config.scheme = scheme;
  config.selection = selection;
  config.tve = 0.9999;
  config.use_sampling = sampling;

  DpzStats stats;
  const auto archive = dpz_compress(data, config, &stats);
  const FloatArray back = dpz_decompress(archive);

  // Shape and size invariants.
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_EQ(stats.archive_bytes, archive.size());
  EXPECT_EQ(stats.original_bytes, data.size() * sizeof(float));

  if (!stats.stored_raw) {
    EXPECT_GE(stats.k, 1U);
    EXPECT_LE(stats.k, stats.layout.m);
    EXPECT_LT(stats.layout.m, stats.layout.n);
    EXPECT_GE(stats.layout.padded_total(), data.size());
    // Never expands the input (the fallback guarantees this).
  }
  EXPECT_LE(archive.size(), data.size() * sizeof(float) + 256);

  // Quality floor: sinusoid + small noise must reconstruct reasonably.
  const ErrorStats err = compute_error_stats(data.flat(), back.flat());
  EXPECT_GT(err.psnr_db, 25.0);

  // The archive header must agree with the stats.
  const DpzArchiveInfo info = dpz_inspect(archive);
  EXPECT_EQ(info.stored_raw, stats.stored_raw);
  if (!info.stored_raw) {
    EXPECT_EQ(info.k, stats.k);
    EXPECT_EQ(info.layout.m, stats.layout.m);
  }
}

TEST_P(PipelineGridTest, ArchiveIsDeterministic) {
  const auto [shape_class, scheme, selection, sampling] = GetParam();
  const FloatArray data = make_field(shape_class, 7);
  DpzConfig config;
  config.scheme = scheme;
  config.selection = selection;
  config.tve = 0.999;
  config.use_sampling = sampling;
  EXPECT_EQ(dpz_compress(data, config), dpz_compress(data, config));
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, PipelineGridTest,
    ::testing::Combine(
        ::testing::Values(ShapeClass::k1dPowerOfTwo,
                          ShapeClass::k1dOddDivisor, ShapeClass::k1dPadded,
                          ShapeClass::k2dRect, ShapeClass::k3dCube),
        ::testing::Values(DpzScheme::kLoose, DpzScheme::kStrict),
        ::testing::Values(KSelectionMethod::kTveThreshold,
                          KSelectionMethod::kKneePoint),
        ::testing::Values(false, true)));

// ---- cross-compressor properties -------------------------------------------

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, EveryCompressorRoundTripsRandomSmoothFields) {
  const FloatArray data = make_field(ShapeClass::k2dRect, GetParam());

  {
    const auto archive = dpz_compress(data, DpzConfig::strict());
    EXPECT_EQ(dpz_decompress(archive).shape(), data.shape());
  }
  {
    SzLikeConfig config;
    config.relative_bound = 1e-3;
    const FloatArray back =
        szlike_decompress(szlike_compress(data, config));
    const double eb = config.resolve_bound(data.value_range());
    EXPECT_LE(compute_error_stats(data.flat(), back.flat()).max_abs_error,
              eb * (1.0 + 1e-9));
  }
  {
    DctzLikeConfig config;
    config.relative_bound = 1e-4;
    const FloatArray back =
        dctzlike_decompress(dctzlike_compress(data, config));
    EXPECT_EQ(back.shape(), data.shape());
  }
  {
    ZfpLikeConfig config;
    config.precision = 20;
    const FloatArray back =
        zfplike_decompress(zfplike_compress(data, config));
    EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 60.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- header fuzzing -----------------------------------------------------------

TEST(ArchiveFuzz, SingleByteHeaderCorruptionNeverCrashes) {
  const FloatArray data = make_field(ShapeClass::k2dRect, 99);
  const auto archive = dpz_compress(data, DpzConfig::strict());

  // Flip each byte of the header region in turn; decompression must either
  // succeed (benign flip) or throw a dpz::Error — never crash or hang.
  const std::size_t header_span = std::min<std::size_t>(64, archive.size());
  for (std::size_t pos = 0; pos < header_span; ++pos) {
    auto corrupted = archive;
    corrupted[pos] ^= 0xFF;
    try {
      const FloatArray out = dpz_decompress(corrupted);
      EXPECT_LE(out.size(), data.size() * 4 + 1024);
    } catch (const Error&) {
      // expected for most flips
    }
  }
}

TEST(ArchiveFuzz, TruncationAtEveryQuarterThrows) {
  const FloatArray data = make_field(ShapeClass::k1dPowerOfTwo, 98);
  const auto archive = dpz_compress(data, DpzConfig::loose());
  for (const double frac : {0.1, 0.25, 0.5, 0.75, 0.95}) {
    auto truncated = archive;
    truncated.resize(static_cast<std::size_t>(
        frac * static_cast<double>(archive.size())));
    EXPECT_THROW(dpz_decompress(truncated), Error) << "fraction " << frac;
  }
}

}  // namespace
}  // namespace dpz
