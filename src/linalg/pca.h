// Principal component analysis over block-feature matrices.
//
// DPZ's Stage 2 (SS IV-B): the decomposed blocks form the feature matrix
// X in R^{M x N} (M block-features, N datapoints per block). PCA
// eigenanalyzes the M x M covariance of X's columns; the paper's key
// result (Eq. 3-6) is that this may be done directly on the DCT
// coefficients. Scores of the leading k components, Y = D_k^T (X - mean),
// are what later stages quantize and encode; reconstruction is
// X_hat = D_k Y + mean.
//
// Standardization (dividing features by their standard deviation) is
// optional and applied only to low-linearity data — the paper notes that
// scaling would redistribute the variance weight of unit-norm DCT block
// features (SS IV-B), so the compressor gates it on the VIF probe.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"

namespace dpz {

/// PcaModel::transform/inverse_transform for any M x (>= k) basis D, as
/// held by the decoder and the shared-basis codec; a basis wider than k
/// (a progressive decode) is read through its leading k columns.
///
/// pca_project: scores(j, c) = sum over i = 0, 1, ..., M-1 of
/// d(i, j) * (x(i, c) - mean[i]), with d(i, j) = D(i, j) / scale[i].
/// pca_back_project: x(i, c) = (sum over j = 0, 1, ..., k-1 of
/// D(i, j) * scores(j, c)) * scale[i] + mean[i].
/// Each sum starts from +0 and adds its terms in that ascending order,
/// one rounded multiply then one rounded add per term; a zero
/// coefficient (of either sign) adds nothing, even against an inf or
/// NaN value. Both run the register-tiled simd panel_accumulate kernel
/// over column panels split across the pool; every output element is
/// one participant's one chain, so the result is the same bits at
/// every ISA and thread count (and equals the plain row-by-row loop).
Matrix pca_project(const Matrix& components, std::span<const double> mean,
                   std::span<const double> scale, const Matrix& x,
                   std::size_t k);
Matrix pca_back_project(const Matrix& components,
                        std::span<const double> mean,
                        std::span<const double> scale, const Matrix& scores);

/// A fitted PCA basis.
struct PcaModel {
  std::vector<double> mean;         ///< per-feature mean, length M
  std::vector<double> scale;        ///< per-feature std (1.0 when not standardized)
  std::vector<double> eigenvalues;  ///< descending, clamped at 0, length M
  Matrix components;                ///< M x k; column j = eigenvector j

  [[nodiscard]] std::size_t feature_count() const { return mean.size(); }

  /// Cumulative total variance explained: tve[k-1] = sum(l_1..l_k)/sum(all).
  /// This is Eq. 2 of the paper and the curve both k-selection methods read.
  [[nodiscard]] std::vector<double> tve_curve() const;

  /// Smallest k whose TVE reaches `threshold` (Method 2, Algorithm 1).
  [[nodiscard]] std::size_t k_for_tve(double threshold) const;

  /// Scores of the first k components: Y = D_k^T (X - mean)/scale, k x N.
  [[nodiscard]] Matrix transform(const Matrix& x, std::size_t k) const {
    return pca_project(components, mean, scale, x, k);
  }

  /// Reconstruction from k scores: X_hat = (D_k Y) * scale + mean, M x N.
  [[nodiscard]] Matrix inverse_transform(const Matrix& scores) const {
    return pca_back_project(components, mean, scale, scores);
  }
};

/// The one PCA fit, in two phases, so Stage 2 can choose k from the whole
/// spectrum before paying for any eigenvector.
///
/// Phase one, fit_pca_spectrum: mean/scale (features are scaled to unit
/// variance when `standardize` is set; zero-variance features keep scale
/// 1), the covariance, its Householder reduction and the FULL eigenvalue
/// spectrum from the values-only QL recurrence.
///
/// Phase two, attach_top_components: the k leading eigenvectors, solved
/// from the cached reduction. A full basis is
/// attach_top_components(fit_pca_spectrum(x), M); with 2k >= M the solve
/// takes eigen_topk_from's dense branch, which is eigen_sym_from, so it
/// equals eigen_sym on the same covariance bit for bit.
///
/// Threading: the per-row means, centering and covariance split their
/// rows over the active pool, and the reduction and the back-transform
/// run on its team (see eigen_sym.h); the single-participant path is the
/// oracle, and every thread count produces the same bits.
struct PcaSpectrum {
  PcaModel model;  ///< mean/scale/eigenvalues filled; components empty
  /// Not filled by the library: fit_pca_spectrum moves the covariance
  /// into `tridiag` instead of keeping an M x M copy. Kept for the
  /// frozen dpz_bench replay, which assigns it before reducing it.
  Matrix cov;
  /// Cached Householder reduction of the covariance — the O(M^3) half of
  /// the eigenvalue pass. attach_top_components solves for the
  /// eigenvectors straight from this instead of reducing a second time.
  TridiagonalReduction tridiag;
};

/// Phase one: center/standardize, covariance, full eigenvalue spectrum
/// (clamped at 0).
PcaSpectrum fit_pca_spectrum(const Matrix& x, bool standardize = false);

/// Phase two: attaches the k leading eigenvectors (eigen_topk_from on the
/// cached reduction, shifted by the model's stored spectrum, so no
/// second eigenvalue pass runs) to the spectrum's model. The model keeps
/// the full eigenvalue list, so tve_curve()/k_for_tve() remain exact on
/// the result.
PcaModel attach_top_components(PcaSpectrum&& spec, std::size_t k);

/// Covariance matrix of X's rows: C = (Xc Xc^T)/N with Xc row-centered
/// (population normalization, matching the eigenvalue/variance accounting
/// in Eq. 2). Exposed separately for the VIF probe, tests, and the
/// DCT-domain identity check (Eq. 4: V_Z = A^T V_X A).
///
/// Takes X by value and centers that copy in place, row by row, so a
/// caller that moves its matrix in (fit_pca_spectrum does) pays for no
/// second M x N buffer; an lvalue argument is copied and left as it was.
/// Each entry is ops.dot(row i, row j, N) / N on the centered rows, and
/// each mean a serial left-to-right row sum, so the result is the same
/// bits at every pool width.
Matrix covariance(Matrix x);

}  // namespace dpz
