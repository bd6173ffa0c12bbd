// Algorithm 2: DPZ's sampling strategy.
//
// Goals (SS IV-D): (1) estimate the data's compressibility before paying
// for compression, via the VIF probe; (2) pick k from a few feature
// subsets instead of a full-matrix PCA, cutting the variance search cost;
// (3) predict the final compression ratio range CR_p ahead of time.
//
// Subsets partition the block-features into S contiguous groups (contiguous
// because the block decomposition preserves locality, which is what makes
// the first/middle/last picks representative). Each sampled subset gets its
// own small PCA; k_e is the mean of the per-subset k values, and the
// full-matrix equivalent is k_e * S.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "stats/knee.h"

namespace dpz {

enum class KSelectionMethod;  // defined in core/dpz.h

/// Datapoints per feature the VIF probe regresses over.
inline constexpr std::size_t kVifSampleCols = 256;

struct SamplingConfig {
  std::size_t subset_count = 10;        ///< S
  std::size_t sample_subset_count = 3;  ///< T
  double tve = 0.99999;                 ///< threshold for per-subset k
  bool use_knee = false;                ///< Method 1 instead of TVE
  KneeFit knee_fit = KneeFit::kFit1D;
  double vif_sampling_rate = 0.01;      ///< SR (fraction of features probed)
  std::uint64_t seed = 2021;
  /// Calibrate the stage-3 and zlib factors of the CR_p estimate by
  /// actually quantizing + deflating the sampled subsets' scores, instead
  /// of using the paper's fixed empirical constants (CR'3 in [1.9, 2.5],
  /// CR'z ~ 1.25). The constants were fitted to the paper's datasets and
  /// do not transfer; calibration keeps the estimate data-driven, which
  /// is the whole point of Algorithm 2. Disable to reproduce the paper's
  /// literal formula.
  bool calibrate_factors = true;
  /// Quantizer parameters used for calibration (match the compression
  /// scheme you intend to run).
  double quant_error_bound = 1e-4;
  bool wide_codes = true;
  /// Pre-computed VIF distribution, probed on the *spatial* block matrix
  /// before the DCT, which is where Algorithm 2 measures collinearity.
  /// dpz_compress and dpz_probe fill it from their shared Stage 1
  /// (core/dpz.h). When non-empty, steps 1-2 reuse it instead of probing
  /// the matrix passed to run_sampling.
  std::vector<double> precomputed_vifs;
};

struct SamplingReport {
  std::vector<double> vifs;        ///< probe VIF distribution
  double vif_median = 0.0;
  bool low_linearity = false;      ///< median VIF below the cutoff (5)

  std::vector<std::size_t> picked_subsets;
  std::vector<std::size_t> subset_ks;
  double k_estimate = 0.0;         ///< k_e: mean of subset_ks
  std::size_t full_k = 1;          ///< k_e scaled to the full feature count

  /// Preliminary compression-ratio band: CR_p = (M/full_k) * CR'3 * CR'z.
  /// With calibrate_factors the per-stage factors come from quantizing +
  /// deflating the sampled subsets (band = spread across subsets +-10%);
  /// otherwise the paper's constants CR'3 in [1.9, 2.5], CR'z ~ 1.25.
  double cr_estimate_low = 0.0;
  double cr_estimate_high = 0.0;
  /// Calibrated per-stage factors (means across sampled subsets); zero
  /// when calibration is off.
  double stage3_factor = 0.0;
  double zlib_factor = 0.0;
};

/// Runs the sampling strategy on the block-feature matrix (M x N, already
/// in the DCT domain), picking the first, middle and last subsets (then
/// further picks spread evenly), the paper's recommendation for
/// high-linearity data. Requires M >= 2 * subset_count so every subset
/// has at least two features. To estimate k for a field before
/// compressing it, call dpz_probe, which runs compress's own Stage 1.
SamplingReport run_sampling(const Matrix& dct_blocks,
                            const SamplingConfig& config);

}  // namespace dpz
