// SZ-like baseline: a from-scratch reimplementation of the SZ 1.4/2.0
// core pipeline the paper compares against (SZ binaries are not available
// offline; see DESIGN.md SS2).
//
// Pipeline: Lorenzo prediction (order-1, dimension-matched) -> linear
// error-bounded quantization of the prediction residual into 2^16 bins
// (bin 0 reserved for unpredictable points, which are stored verbatim) ->
// canonical Huffman over the bin codes -> zlib. Prediction runs on
// *reconstructed* values so compressor and decompressor stay in lockstep
// and the absolute error bound holds pointwise:
// |decompressed - original| <= eb for every point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.h"

namespace dpz {

struct SzLikeConfig {
  /// Absolute error bound. Ignored when relative_bound > 0.
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

/// Compresses `data` (rank 1-3) with the SZ-like pipeline.
std::vector<std::uint8_t> szlike_compress(const FloatArray& data,
                                          const SzLikeConfig& config);

/// Decompresses an SZ-like archive.
FloatArray szlike_decompress(std::span<const std::uint8_t> archive);

/// Compressor-interface adapter.
class SzLikeCompressor final : public Compressor {
 public:
  explicit SzLikeCompressor(SzLikeConfig config = {}) : config_(config) {}

  std::vector<std::uint8_t> compress(const FloatArray& data) override {
    return szlike_compress(data, config_);
  }
  FloatArray decompress(std::span<const std::uint8_t> archive) override {
    return szlike_decompress(archive);
  }
  [[nodiscard]] std::string name() const override { return "SZ-like"; }

  [[nodiscard]] SzLikeConfig& config() { return config_; }

 private:
  SzLikeConfig config_;
};

}  // namespace dpz
