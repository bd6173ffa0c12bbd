// Error-bound conformance: DPZ's bound P is "designed only for
// approximation on k-PCA" (SS IV-C) — every NORMALIZED score must be
// reconstructed to within P, or escape verbatim as an outlier. The test
// replicates stages 1–2 of the compressor bit for bit (the pipeline is
// deterministic) to recover the exact quantizer input, parses the code
// and outlier sections out of the real archive, and checks the bound
// value by value across schemes, selection methods, and ranks. A second
// group asserts the schemes order as documented: DPZ-s (P = 1e-4) never
// reconstructs worse than DPZ-l (P = 1e-3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "core/archive_detail.h"
#include "core/blocking.h"
#include "core/dpz.h"
#include "core/layout.h"
#include "data/datasets.h"
#include "dsp/dct.h"
#include "linalg/pca.h"
#include "metrics/metrics.h"
#include "mutator.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray synthetic(const std::vector<std::size_t>& shape,
                     std::uint64_t seed) {
  std::size_t total = 1;
  for (const std::size_t d : shape) total *= d;
  Rng rng(seed);
  std::vector<float> values(total);
  const std::size_t inner = shape.back();
  for (std::size_t i = 0; i < total; ++i)
    values[i] = static_cast<float>(
        0.4 * static_cast<double>((i / inner) % 19) -
        0.2 * static_cast<double>(i % 11) + rng.uniform(-1.0, 1.0));
  return FloatArray(shape, std::move(values));
}

/// The archive's stage-3 payload, parsed with the same framing the
/// decoder uses.
struct Payload {
  QuantizerConfig qcfg;
  std::size_t k = 0;
  std::size_t n = 0;
  double score_scale = 0.0;
  QuantizedStream stream;
};

Payload parse_payload(std::span<const std::uint8_t> archive) {
  Payload p;
  const auto layout = detail::parse_layout<detail::DpzLayout>(archive);
  const DpzArchiveInfo& info = layout.info;
  EXPECT_EQ(read_u32_at(archive, 0), 0x315A5044U);  // "DPZ1"
  EXPECT_EQ(info.version, 2);  // the current format
  EXPECT_FALSE(info.stored_raw) << "stored-raw fallback fired unexpectedly";
  p.qcfg.wide_codes = info.wide_codes;
  p.qcfg.error_bound = info.error_bound;
  const std::size_t m = info.layout.m;
  p.n = info.layout.n;
  p.k = info.k;
  const std::uint64_t outlier_count = info.outlier_count;

  const detail::SideData side = detail::deserialize_side(
      detail::get_section(archive, layout.sections[1]), m, p.k,
      info.standardized);
  p.score_scale = side.score_scale;

  p.stream.count = p.k * p.n;
  p.stream.codes = detail::get_section(archive, layout.sections[2]);
  EXPECT_EQ(p.stream.codes.size(), p.stream.count * p.qcfg.code_bytes());

  const std::vector<std::uint8_t> outlier_raw =
      detail::get_section(archive, layout.sections[3]);
  EXPECT_EQ(outlier_raw.size(), outlier_count * sizeof(float));
  ByteReader outlier_reader(outlier_raw);
  p.stream.outliers.resize(static_cast<std::size_t>(outlier_count));
  for (double& v : p.stream.outliers)
    v = static_cast<double>(outlier_reader.get_f32());
  return p;
}

/// Replays stages 1–2 exactly as compress_impl runs them (deterministic
/// pipeline, so this reproduces the quantizer's input bit for bit).
std::vector<double> replicate_normalized_scores(const FloatArray& data,
                                                const Payload& p,
                                                bool standardized) {
  const BlockLayout layout = choose_block_layout(data.size());
  Matrix blocks = to_blocks(data.flat(), layout);
  const DctPlan plan(layout.n);
  for (std::size_t i = 0; i < layout.m; ++i) {
    auto row = blocks.row(i);
    plan.forward(row, row);
  }
  // compress_impl's non-sampling branch fits spectrum-first and then
  // attaches only the k leading eigenvectors; replicate that exactly —
  // beyond the dense fallback sizes the inverse-iteration basis differs
  // in bits from a truncated dense eigen_sym basis.
  PcaSpectrum spec = fit_pca_spectrum(blocks, standardized);
  const PcaModel model = attach_top_components(std::move(spec), p.k);
  Matrix scores = model.transform(blocks, p.k);
  EXPECT_DOUBLE_EQ(detail::component_scale(scores.row(0)), p.score_scale);
  const double inv = 1.0 / p.score_scale;
  for (double& v : scores.flat()) v *= inv;
  return {scores.flat().begin(), scores.flat().end()};
}

void check_bound(const DpzConfig& config,
                 const std::vector<std::size_t>& shape,
                 std::uint64_t seed) {
  const FloatArray data = synthetic(shape, seed);
  const std::vector<std::uint8_t> archive = dpz_compress(data, config);
  const DpzArchiveInfo info = dpz_inspect(archive);
  ASSERT_FALSE(info.stored_raw);

  const Payload p = parse_payload(archive);
  EXPECT_DOUBLE_EQ(p.qcfg.error_bound, config.effective_error_bound());
  const std::vector<double> s =
      replicate_normalized_scores(data, p, info.standardized);
  ASSERT_EQ(s.size(), p.stream.count);

  std::vector<double> q(p.stream.count);
  dequantize(p.stream, p.qcfg, q);

  const double bound = p.qcfg.error_bound;
  const std::uint32_t escape = p.qcfg.bin_count();
  const std::size_t code_bytes = p.qcfg.code_bytes();
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::uint32_t code = p.stream.codes[i * code_bytes];
    if (p.qcfg.wide_codes)
      code |= static_cast<std::uint32_t>(
                  p.stream.codes[i * code_bytes + 1])
              << 8;
    if (code == escape) {
      ++escapes;
      // Outliers travel verbatim at the element width: the only loss is
      // the f32 cast.
      EXPECT_EQ(q[i], static_cast<double>(static_cast<float>(s[i])))
          << "outlier not verbatim at index " << i;
    } else {
      // In-range values land on a bin center at most P away. Allow one
      // part in 10^12 for the bin-center arithmetic's own rounding.
      EXPECT_LE(std::abs(s[i] - q[i]), bound * (1.0 + 1e-12))
          << "bound violated at index " << i << " (|s|=" << std::abs(s[i])
          << ")";
    }
  }
  EXPECT_EQ(escapes, p.stream.outliers.size());
  EXPECT_EQ(escapes, static_cast<std::size_t>(info.outlier_count));
  // Normalized scores live within ~1 (they are divided by 8 sigma of the
  // dominant component), so only schemes whose covered band is narrower
  // than that can see escapes at all. DPZ-l (half-range 0.255) must; the
  // DPZ-s band (6.55) is unreachable by construction.
  if (p.qcfg.half_range() < 0.5) {
    EXPECT_GT(escapes, 0U)
        << "input too tame: the outlier escape path was never exercised";
  }
}

DpzConfig with_selection(DpzConfig config, KSelectionMethod method) {
  config.selection = method;
  return config;
}

TEST(ErrorBound, Loose1DTve) {
  check_bound(DpzConfig::loose(), {4096}, 301);
}
TEST(ErrorBound, Loose2DTve) {
  check_bound(DpzConfig::loose(), {96, 80}, 302);
}
TEST(ErrorBound, Loose3DKnee) {
  check_bound(with_selection(DpzConfig::loose(),
                             KSelectionMethod::kKneePoint),
              {24, 20, 16}, 303);
}
TEST(ErrorBound, Strict1DKnee) {
  check_bound(with_selection(DpzConfig::strict(),
                             KSelectionMethod::kKneePoint),
              {4096}, 304);
}
TEST(ErrorBound, Strict2DTve) {
  check_bound(DpzConfig::strict(), {96, 80}, 305);
}
TEST(ErrorBound, Strict3DTve) {
  // Bigger than the loose 3-D case: at 2-byte codes a tiny grid loses to
  // plain zlib and trips the stored-raw fallback, which has no stage 3.
  check_bound(DpzConfig::strict(), {40, 32, 24}, 306);
}
TEST(ErrorBound, CustomBoundIsHonored) {
  DpzConfig config = DpzConfig::strict();
  config.error_bound = 5e-4;
  check_bound(config, {96, 80}, 307);
}

double psnr_for(const FloatArray& data, const DpzConfig& config) {
  const std::vector<std::uint8_t> archive = dpz_compress(data, config);
  const FloatArray back = dpz_decompress(archive);
  return compute_error_stats(data.flat(), back.flat()).psnr_db;
}

TEST(ErrorBound, StrictSchemeNeverReconstructsWorseThanLoose) {
  // P = 1e-4 with 2-byte codes both tightens each bin and widens the
  // covered range, so DPZ-s must dominate DPZ-l in PSNR (0.01 dB slack
  // for metric arithmetic).
  const std::vector<std::vector<std::size_t>> shapes = {
      {4096}, {96, 80}, {24, 20, 16}};
  for (const auto& shape : shapes) {
    const FloatArray data = synthetic(shape, 401 + shape.size());
    const double loose = psnr_for(data, DpzConfig::loose());
    const double strict = psnr_for(data, DpzConfig::strict());
    EXPECT_GE(strict, loose - 0.01)
        << "DPZ-s lost to DPZ-l on rank " << shape.size();
  }
  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  EXPECT_GE(psnr_for(ds.data, DpzConfig::strict()),
            psnr_for(ds.data, DpzConfig::loose()) - 0.01);
}

TEST(ErrorBound, TighterCustomBoundImprovesPsnr) {
  const FloatArray data = synthetic({96, 80}, 501);
  DpzConfig wide = DpzConfig::strict();
  wide.error_bound = 1e-3;
  DpzConfig tight = DpzConfig::strict();
  tight.error_bound = 1e-4;
  EXPECT_GE(psnr_for(data, tight), psnr_for(data, wide) - 0.01);
}

}  // namespace
}  // namespace dpz
