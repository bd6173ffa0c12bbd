// TTHRESH-like baseline: a from-scratch reimplementation of the core of
// TTHRESH (Ballester-Ripoll, Lindstrom, Pajarola — TVCG'20), the tensor
// decomposition compressor the paper's related work (SS VI) describes for
// high-dimensional visual data.
//
// Pipeline: HOSVD (Tucker) — factor matrices from the eigendecomposition
// of each mode's Gram matrix, orthonormal core C = X x1 U1^T x2 U2^T x3
// U3^T — then energy thresholding of the core (orthonormality makes the
// discarded core energy exactly the squared reconstruction error, so the
// `energy` knob is an exact rate-distortion control), a presence bitmask,
// and the kept coefficients + factors behind byte-shuffle + zlib.
//
// TTHRESH proper bit-plane-codes the sorted core; this reimplementation
// keeps the decomposition and the energy-driven truncation — the parts
// that give tensor methods their characteristic rate-distortion shape on
// 3-D data — with a simpler entropy stage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "io/ndarray.h"

namespace dpz {

struct TthreshLikeConfig {
  /// Fraction of total core energy to preserve, in (0, 1]. The achieved
  /// PSNR follows directly: MSE = (1 - energy) * field variance-ish.
  double energy = 0.999999;
};

/// Compresses a rank-2 or rank-3 tensor. Rank-1 inputs are rejected
/// (tensor decomposition needs at least two modes).
std::vector<std::uint8_t> tthresh_like_compress(
    const FloatArray& data, const TthreshLikeConfig& config);

FloatArray tthresh_like_decompress(std::span<const std::uint8_t> archive);

}  // namespace dpz
