// Stage 3 of DPZ: symmetric uniform quantization with an outlier escape.
//
// The k-PCA scores are symmetric about zero (PCA on block-DCT coefficients
// is near-normal, SS IV-C), which is what makes a zero-centered uniform
// quantizer effective. The bounding range is +-(P * B) with bin width 2P,
// where P is the error bound and B the number of bins per half-range;
// in-range values are replaced by their bin's center (|error| <= P) and
// out-of-range values are stored verbatim behind an escape code.
//
// Two encodings match the paper's two schemes:
//   * 1-byte codes (DPZ-l): 255 usable bins + escape;
//   * 2-byte codes (DPZ-s): 65535 usable bins + escape.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace dpz {

struct QuantizerConfig {
  /// Error bound P: |dequantized - original| <= P for in-range values.
  double error_bound = 1e-3;
  /// false: 1-byte codes (DPZ-l); true: 2-byte codes (DPZ-s).
  bool wide_codes = false;

  /// Total distinct codes (including the escape code).
  [[nodiscard]] std::uint32_t code_count() const {
    return wide_codes ? 65536U : 256U;
  }
  /// Usable bins B (code_count - 1; the last code is the escape).
  [[nodiscard]] std::uint32_t bin_count() const { return code_count() - 1; }
  /// Half-range P*B covered by bins on each side of zero... the bins are
  /// centered on zero, so the covered interval is [-P*B, +P*B].
  [[nodiscard]] double half_range() const {
    return error_bound * static_cast<double>(bin_count());
  }
  [[nodiscard]] std::size_t code_bytes() const { return wide_codes ? 2 : 1; }
};

/// Output of the quantizer: packed codes plus the escape payload.
/// Outliers keep full double precision here; the archive serializer casts
/// them to the element width of the input data (f32 or f64).
struct QuantizedStream {
  std::size_t count = 0;               ///< number of quantized values
  std::vector<std::uint8_t> codes;     ///< count * code_bytes, little-endian
  std::vector<double> outliers;        ///< out-of-range values, in order
};

/// Quantizes `values`; in-range entries become bin codes, the rest go to
/// the outlier list (their slots hold the escape code).
QuantizedStream quantize(std::span<const double> values,
                         const QuantizerConfig& config);

/// Reconstructs values from a quantized stream into `out`
/// (out.size() must equal stream.count).
void dequantize(const QuantizedStream& stream, const QuantizerConfig& config,
                std::span<double> out);

/// Truncates `stream` in place to its first `count` values and their
/// outliers; FormatError when those codes escape more than it holds.
void keep_prefix(QuantizedStream& stream, const QuantizerConfig& config,
                 std::size_t count);

}  // namespace dpz
