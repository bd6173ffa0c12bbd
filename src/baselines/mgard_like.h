// MGARD-like baseline: a from-scratch reimplementation of the multilevel
// decomposition idea behind MGARD (Ainsworth, Tugluk, Whitney, Klasky),
// the multigrid compressor family the paper's taxonomy (SS I, SS VI)
// lists as its third class alongside prediction (SZ) and transform
// (ZFP/DCTZ/DPZ) methods.
//
// Pipeline: a separable hierarchical-basis transform — per axis, fine
// nodes are replaced by their residual against linear interpolation of
// the coarser grid, recursively through log2(n) levels — followed by
// error-bounded uniform quantization of the multilevel coefficients,
// canonical Huffman, and zlib. Quantizing each coefficient to
// eb / (total levels) yields a guaranteed pointwise bound
// |x - x_hat| <= eb (errors accumulate at most once per level per axis).
//
// MGARD proper projects onto the coarse space in the L2 sense and offers
// a family of s-norms; this reimplementation keeps the multilevel
// structure and the hard error guarantee, which is what gives the family
// its rate-distortion character.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "io/ndarray.h"

namespace dpz {

struct MgardLikeConfig {
  /// Absolute pointwise error bound. Ignored when relative_bound > 0.
  double error_bound = 1e-3;
  /// Value-range-relative bound: eb = relative_bound * (max - min).
  double relative_bound = 0.0;

  [[nodiscard]] double resolve_bound(double value_range) const {
    if (relative_bound > 0.0) {
      const double r = value_range > 0.0 ? value_range : 1.0;
      return relative_bound * r;
    }
    return error_bound;
  }
};

std::vector<std::uint8_t> mgard_like_compress(const FloatArray& data,
                                              const MgardLikeConfig& config);

FloatArray mgard_like_decompress(std::span<const std::uint8_t> archive);

/// Exposed for tests: the in-place 1-D hierarchical transform along a
/// strided axis (`n` nodes, `stride` elements apart). forward and inverse
/// are exact inverses in exact arithmetic.
void hierarchical_forward_1d(std::span<double> data, std::size_t n,
                             std::size_t stride);
void hierarchical_inverse_1d(std::span<double> data, std::size_t n,
                             std::size_t stride);

}  // namespace dpz
