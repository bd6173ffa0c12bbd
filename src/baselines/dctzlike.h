// DCTZ-like baseline: a from-scratch reimplementation of the single-stage
// transform compressor that preceded DPZ (Zhang et al., MSST'19 / HPEC'20
// — cited as DPZ's predecessor in SS VI).
//
// Pipeline: block decomposition -> per-block orthonormal DCT-II ->
// uniform quantization of the coefficients against one absolute bound
// (bin width 2*eb, 2-byte codes, escape for out-of-range) -> zlib. Because the DCT is
// orthonormal, a per-coefficient error e yields a reconstruction RMS
// error of e/sqrt(3) (Parseval), so the bound maps predictably to PSNR.
//
// This is exactly DPZ minus Stage 2: comparing the two isolates what the
// PCA stage contributes (the paper's core claim).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "io/ndarray.h"

namespace dpz {

struct DctzLikeConfig {
  /// Absolute per-coefficient error bound. Ignored when relative_bound>0.
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

std::vector<std::uint8_t> dctzlike_compress(const FloatArray& data,
                                            const DctzLikeConfig& config);

FloatArray dctzlike_decompress(std::span<const std::uint8_t> archive);

}  // namespace dpz
