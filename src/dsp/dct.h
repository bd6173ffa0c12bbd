// Orthonormal DCT-II / DCT-III (Stage 1 of the DPZ pipeline).
//
// The paper's first retrieval stage applies DCT-II to each decomposed
// block (SS IV-A); because the transform matrix A is orthogonal
// (A^T = A^-1), the forward transform is z = A^T x and the inverse is
// x = A z, and Parseval's identity makes the energy-compaction ratio (ECR,
// Eq. 1) well defined on coefficients.
//
// Two execution paths are provided, both 1-D (Stage 1 transforms each
// block row on its own):
//  * DctPlan       — O(n log n) via Makhoul's single-length-n FFT method;
//                    even lengths pack the real sequence into an n/2
//                    complex FFT in both directions. Used by the
//                    compressor and the decoder through dct_plan's
//                    per-length cache;
//  * dct_naive_*   — O(n^2) direct evaluation, kept as the oracle the unit
//                    tests and micro benches cross-validate against.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace dpz {

/// Plan for repeated orthonormal DCTs of a fixed length.
///
/// Immutable after construction and safe to share across worker threads:
/// forward and inverse keep their scratch in thread_local buffers.
class DctPlan {
 public:
  explicit DctPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Forward orthonormal DCT-II: out[k] = s_k * sum x[i] cos(pi(2i+1)k/2n),
  /// s_0 = sqrt(1/n), s_k = sqrt(2/n). `in` and `out` may alias.
  void forward(std::span<const double> in, std::span<double> out) const;

  /// Inverse transform (orthonormal DCT-III). `in` and `out` may alias.
  void inverse(std::span<const double> in, std::span<double> out) const;

 private:
  std::size_t n_;
  /// Odd n only: the full-length transform (length 1, unused, for even n).
  FftPlan fft_;
  /// Even n only: the Makhoul-reordered sequence is REAL, so its length-n
  /// DFT falls out of the length-n/2 complex DFT of adjacent sample pairs
  /// plus an O(n) untangling pass — roughly half the butterfly work of
  /// the full-length transform. The inverse folds the spectrum the same
  /// way before one inverse transform at this length.
  FftPlan half_fft_;
  std::vector<std::complex<double>> shift_;  // exp(-i*pi*k/(2n))
  std::vector<std::complex<double>> rt_;     // exp(-2*pi*i*k/n), k in [0, n/2]
  double scale0_;                            // sqrt(1/n)
  double scale_;                             // sqrt(2/n)
};

/// The shared plan for length `n`, built on first use. A small
/// mutex-guarded table keeps the plans of the most recently built
/// lengths, so repeated compress and decode calls, and every frame of a
/// chunked container, build each length once. Safe to call from any
/// thread; a returned plan stays valid after the table drops it.
std::shared_ptr<const DctPlan> dct_plan(std::size_t n);

/// Reference O(n^2) orthonormal DCT-II.
std::vector<double> dct_naive_forward(std::span<const double> x);

/// Reference O(n^2) orthonormal DCT-III (inverse of dct_naive_forward).
std::vector<double> dct_naive_inverse(std::span<const double> x);

}  // namespace dpz
