// DpzAnalysis: a cache of Stage 1 and the PCA spectrum over the shipping
// encoder, for parameter sweeps (Fig 6; Tables II-IV; rate control).
//
// Stage 1 and fit_pca_spectrum (covariance + O(M^3) reduction) run once;
// each evaluate(k) takes the k leading eigenvectors from the compressor's
// own solve, encodes with detail::encode and decodes with dpz_decompress.
// Invariant: evaluate(k) returns exactly the bytes dpz_compress writes
// with fixed_k = k (same standardize flag, quantizer and zlib level), and
// its reconstruction is that archive's decode; the test
// DpzAnalysis.EvaluationMatchesRealCompressor holds the two equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "codec/quantizer.h"
#include "core/blocking.h"
#include "core/dpz.h"
#include "linalg/pca.h"
#include "metrics/metrics.h"

namespace dpz {

class DpzAnalysis {
 public:
  /// Runs Stage 1 (blocking + DCT) and the spectrum-first PCA fit on
  /// `data`. `forced_layout` overrides the automatic divisor-pair choice
  /// (used by the block-layout ablation bench); it must cover data.size().
  explicit DpzAnalysis(const FloatArray& data, bool standardize = false,
                       std::optional<BlockLayout> forced_layout = {});

  [[nodiscard]] const BlockLayout& layout() const { return layout_; }
  [[nodiscard]] const Matrix& dct_blocks() const { return dct_blocks_; }
  [[nodiscard]] std::vector<double> tve_curve() const {
    return spectrum_.model.tve_curve();
  }

  /// Stage 2's k rule (detail::select_k) on the cached spectrum.
  [[nodiscard]] std::size_t k_for_tve(double threshold) const;
  [[nodiscard]] std::size_t k_for_knee(KneeFit fit) const;

  /// The k-component model dpz_compress fits at fixed_k = k (components
  /// M x k). Vectors are cached per eigen_topk_from branch: a solve at k
  /// serves every smaller k of the same branch (topk_is_dense; pinned by
  /// DpzAnalysis.CachedBasisMatchesFreshSolve).
  [[nodiscard]] PcaModel model(std::size_t k);

  /// Reconstruction with exact (unquantized) k scores — the "Stage 1&2"
  /// output whose PSNR Table IV compares against the quantized pipeline.
  [[nodiscard]] FloatArray reconstruct_exact(std::size_t k);

  /// One operating point: the real archive at k, its decode, its stats.
  struct Evaluation {
    ErrorStats stage3_error;   ///< decoded archive vs original
    DpzStats accounting;       ///< the encoder's stats for `archive`
    std::vector<std::uint8_t> archive;  ///< dpz_compress's bytes at k
    FloatArray reconstructed;  ///< dpz_decompress(archive)
  };
  /// `score_sigma_scale` overrides the global normalization calibration
  /// (detail::kScoreSigmaScale) for the quantizer-calibration ablation;
  /// 0 keeps the default.
  [[nodiscard]] Evaluation evaluate(std::size_t k,
                                    const QuantizerConfig& qcfg,
                                    int zlib_level = 6,
                                    double score_sigma_scale = 0.0);

 private:

  FloatArray original_;
  bool standardized_;
  BlockLayout layout_;
  Matrix dct_blocks_;
  PcaSpectrum spectrum_;
  Matrix dense_vectors_;     ///< dense-branch vectors solved so far
  Matrix iterated_vectors_;  ///< inverse-iteration vectors solved so far
};

}  // namespace dpz
