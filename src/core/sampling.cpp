#include "core/sampling.h"

#include <algorithm>
#include <cmath>

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "codec/zlib_codec.h"
#include "core/archive_detail.h"
#include "linalg/pca.h"
#include "stats/descriptive.h"
#include "stats/vif.h"
#include "util/error.h"
#include "util/rng.h"

namespace dpz {

namespace {

// Paper's empirical per-stage factors (SS IV-D2).
constexpr double kStage3Low = 1.9;
constexpr double kStage3High = 2.5;
constexpr double kZlibFactor = 1.25;

// Copies subset rows [lo, hi) of `x` into their own matrix.
Matrix slice_rows(const Matrix& x, std::size_t lo, std::size_t hi) {
  Matrix out(hi - lo, x.cols());
  for (std::size_t i = lo; i < hi; ++i) {
    const auto src = x.row(i);
    std::copy(src.begin(), src.end(), out.row(i - lo).begin());
  }
  return out;
}

}  // namespace

SamplingReport run_sampling(const Matrix& dct_blocks,
                            const SamplingConfig& config) {
  const std::size_t m = dct_blocks.rows();
  DPZ_REQUIRE(config.subset_count >= 1, "subset count must be >= 1");
  DPZ_REQUIRE(config.sample_subset_count >= 1 &&
                  config.sample_subset_count <= config.subset_count,
              "sample subset count must be in [1, S]");
  DPZ_REQUIRE(m >= 2 * config.subset_count,
              "need at least two features per subset");

  SamplingReport report;

  // Step 1-2: VIF compressibility probe on a random feature sample (the
  // caller probes the spatial block matrix and passes the result in;
  // otherwise probe whatever matrix we were given).
  if (!config.precomputed_vifs.empty()) {
    report.vifs = config.precomputed_vifs;
  } else {
    Rng rng(config.seed);
    report.vifs = sampled_vif(dct_blocks, config.vif_sampling_rate,
                              kVifSampleCols, rng);
  }
  report.vif_median = quantile_of(report.vifs, 0.5);
  report.low_linearity = report.vif_median < kVifCutoff;

  // Step 3: choose the T subsets.
  const std::size_t s = config.subset_count;
  const std::size_t t = config.sample_subset_count;
  // First, middle, last (then spread further picks evenly); t <= s keeps
  // the picks strictly increasing.
  for (std::size_t i = 0; i < t; ++i)
    report.picked_subsets.push_back(t == 1 ? 0 : i * (s - 1) / (t - 1));

  // Step 4: per-subset PCA and k selection, plus (optionally) a
  // calibration pass that measures the actual stage-3 and zlib factors on
  // each subset's quantized score streams. k comes from the values-only
  // spectrum through the compressor's own k rule; only calibration needs
  // eigenvectors. It projects on k of them but attaches the subset's full
  // basis, the dense branch: inverse iteration picks other eigenvector
  // signs, which would change the quantized codes and so the CR_p band.
  DpzConfig rule;
  rule.selection = config.use_knee ? KSelectionMethod::kKneePoint
                                   : KSelectionMethod::kTveThreshold;
  rule.tve = config.tve;
  rule.knee_fit = config.knee_fit;
  std::vector<double> cr3_samples;
  std::vector<std::uint8_t> calib_codes;   // concatenated across subsets
  std::vector<std::uint8_t> calib_outliers;
  double calib_stage3_bytes = 0.0;
  const std::size_t base = m / s;
  for (const std::size_t subset : report.picked_subsets) {
    const std::size_t lo = subset * base;
    const std::size_t hi = (subset + 1 == s) ? m : lo + base;
    const Matrix sub = slice_rows(dct_blocks, lo, hi);
    PcaSpectrum spec = fit_pca_spectrum(sub, report.low_linearity);
    const std::size_t k = detail::select_k(spec.model, rule);
    report.subset_ks.push_back(k);

    if (config.calibrate_factors) {
      Matrix scores = attach_top_components(std::move(spec), sub.rows())
                          .transform(sub, k);
      QuantizerConfig qcfg;
      qcfg.error_bound = config.quant_error_bound;
      qcfg.wide_codes = config.wide_codes;
      const QuantizedStream qs = detail::stage3_forward(scores, qcfg).qs;

      const double stage12_bytes =
          static_cast<double>(k) * static_cast<double>(sub.cols()) *
          sizeof(float);
      const double stage3_bytes = static_cast<double>(
          qs.codes.size() + qs.outliers.size() * sizeof(float));
      cr3_samples.push_back(stage12_bytes / stage3_bytes);

      // Accumulate the streams: deflate ratios measured on tiny buffers
      // are systematically pessimistic (cold dictionary, fixed overhead),
      // so the zlib factor is calibrated once on the concatenation.
      calib_codes.insert(calib_codes.end(), qs.codes.begin(),
                         qs.codes.end());
      for (const double v : qs.outliers) {
        ByteWriter b;
        b.put_f32(static_cast<float>(v));
        calib_outliers.insert(calib_outliers.end(), b.bytes().begin(),
                              b.bytes().end());
      }
      calib_stage3_bytes += stage3_bytes;
    }
  }

  // Step 5: k_e and its full-matrix equivalent.
  double sum = 0.0;
  for (const std::size_t k : report.subset_ks)
    sum += static_cast<double>(k);
  report.k_estimate = sum / static_cast<double>(report.subset_ks.size());
  report.full_k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(report.k_estimate * static_cast<double>(s))),
      1, m);

  // Step 6: preliminary CR band.
  const double cr12 =
      static_cast<double>(m) / static_cast<double>(report.full_k);
  if (config.calibrate_factors && !cr3_samples.empty()) {
    report.stage3_factor = mean_of(cr3_samples);
    const double zipped = static_cast<double>(
        zlib_compress(calib_codes).size() +
        zlib_compress(calib_outliers).size());
    report.zlib_factor = calib_stage3_bytes / std::max(zipped, 1.0);
    double lo3 = cr3_samples[0], hi3 = cr3_samples[0];
    for (std::size_t i = 1; i < cr3_samples.size(); ++i) {
      lo3 = std::min(lo3, cr3_samples[i]);
      hi3 = std::max(hi3, cr3_samples[i]);
    }
    // Prediction band: the subset spread on the stage-3 factor, widened
    // asymmetrically — sample-deflate still understates the full stream's
    // ratio (a longer stream warms the dictionary further), so the high
    // side carries most of the allowance.
    report.cr_estimate_low = cr12 * lo3 * report.zlib_factor * 0.85;
    report.cr_estimate_high = cr12 * hi3 * report.zlib_factor * 1.9;
  } else {
    report.cr_estimate_low = cr12 * kStage3Low * kZlibFactor;
    report.cr_estimate_high = cr12 * kStage3High * kZlibFactor;
  }
  return report;
}

}  // namespace dpz
