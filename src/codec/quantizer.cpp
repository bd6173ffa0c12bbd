#include "codec/quantizer.h"

#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "simd/simd.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

// Values per parallel strip. Strips are a fixed property of the stream
// length — never of the worker count — so the codes buffer and the
// strip-ordered outlier concatenation are bit-identical for every thread
// count (each index maps to the same code, and strip-order equals stream
// order because strips are contiguous and ascending).
constexpr std::size_t kStripValues = 1U << 16;

std::size_t strip_count(std::size_t n) {
  return (n + kStripValues - 1) / kStripValues;
}

inline std::uint32_t read_code(const std::uint8_t* codes, std::size_t i,
                               bool wide) {
  std::uint32_t code = codes[i * (wide ? 2 : 1)];
  if (wide) code |= static_cast<std::uint32_t>(codes[i * 2 + 1]) << 8;
  return code;
}

}  // namespace

QuantizedStream quantize(std::span<const double> values,
                         const QuantizerConfig& config) {
  DPZ_REQUIRE(config.error_bound > 0.0, "error bound must be positive");

  const double p = config.error_bound;
  const double half = config.half_range();
  const std::uint32_t bins = config.bin_count();
  const std::uint32_t escape = bins;  // == code_count() - 1
  const bool wide = config.wide_codes;
  const std::size_t stride = config.code_bytes();

  QuantizedStream out;
  out.count = values.size();
  out.codes.resize(values.size() * stride);

  // Each strip writes its disjoint slice of the code buffer and collects
  // its outliers locally; the locals are concatenated in strip order,
  // which reproduces the serial (stream-order) outlier list exactly.
  const std::size_t strips = strip_count(values.size());
  std::vector<std::vector<double>> strip_outliers(strips);
  const simd::KernelTable& ops = simd::kernels();
  parallel_for(0, strips, [&](std::size_t s) {
    const std::size_t lo = s * kStripValues;
    const std::size_t hi = std::min(values.size(), lo + kStripValues);
    // Vectorized code pass (out-of-range values, NaN included, get the
    // escape code == bins), then a scalar sweep over the fresh codes to
    // collect the outlier values in stream order.
    ops.quantize_codes(values.data() + lo, hi - lo, half, p, bins, wide,
                       out.codes.data() + lo * stride);
    std::vector<double>& outliers = strip_outliers[s];
    for (std::size_t i = lo; i < hi; ++i)
      if (read_code(out.codes.data(), i, wide) == escape)
        outliers.push_back(values[i]);
  });

  std::size_t total = 0;
  for (const auto& so : strip_outliers) total += so.size();
  out.outliers.reserve(total);
  for (const auto& so : strip_outliers)
    out.outliers.insert(out.outliers.end(), so.begin(), so.end());
  obs::count(obs::Counter::kQuantValues, values.size());
  obs::count(obs::Counter::kQuantSaturated, total);
  return out;
}

void dequantize(const QuantizedStream& stream, const QuantizerConfig& config,
                std::span<double> out) {
  DPZ_REQUIRE(out.size() == stream.count,
              "output span must match the quantized count");
  DPZ_REQUIRE(stream.codes.size() == stream.count * config.code_bytes(),
              "code buffer size mismatch");

  const double p = config.error_bound;
  const double half = config.half_range();
  const std::uint32_t escape = config.bin_count();
  const bool wide = config.wide_codes;

  // Pass 1: count escapes per strip, so pass 2 knows each strip's offset
  // into the stream-ordered outlier list without a sequential scan.
  const std::size_t strips = strip_count(stream.count);
  std::vector<std::size_t> escapes(strips, 0);
  parallel_for(0, strips, [&](std::size_t s) {
    const std::size_t lo = s * kStripValues;
    const std::size_t hi = std::min(stream.count, lo + kStripValues);
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i)
      if (read_code(stream.codes.data(), i, wide) == escape) ++count;
    escapes[s] = count;
  });
  std::vector<std::size_t> offsets(strips, 0);
  std::exclusive_scan(escapes.begin(), escapes.end(), offsets.begin(),
                      std::size_t{0});
  const std::size_t total_escapes =
      strips == 0 ? 0 : offsets.back() + escapes.back();
  if (total_escapes > stream.outliers.size())
    throw FormatError("quantized stream: missing outlier value");
  if (total_escapes < stream.outliers.size())
    throw FormatError("quantized stream: unconsumed outlier values");

  // Pass 2: decode. Codes are biased bins below the escape by
  // construction (the escape is the largest representable code), so the
  // serial version's invalid-code path cannot trigger here. The kernel
  // writes a bin center (-half + P * (2*code + 1)) for EVERY code,
  // escapes included; the scalar sweep then patches the escape slots
  // from the stream-ordered outlier list.
  const simd::KernelTable& ops = simd::kernels();
  const std::size_t stride = config.code_bytes();
  parallel_for(0, strips, [&](std::size_t s) {
    const std::size_t lo = s * kStripValues;
    const std::size_t hi = std::min(stream.count, lo + kStripValues);
    ops.dequantize_codes(stream.codes.data() + lo * stride, hi - lo, p,
                         half, wide, out.data() + lo);
    std::size_t outlier_pos = offsets[s];
    for (std::size_t i = lo; i < hi; ++i)
      if (read_code(stream.codes.data(), i, wide) == escape)
        out[i] = stream.outliers[outlier_pos++];
  });
}

void keep_prefix(QuantizedStream& stream, const QuantizerConfig& config,
                 std::size_t count) {
  DPZ_REQUIRE(count <= stream.count, "prefix longer than the stream");
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < count; ++i)
    if (read_code(stream.codes.data(), i, config.wide_codes) ==
        config.bin_count())
      ++escapes;
  if (escapes > stream.outliers.size())
    throw FormatError("DPZ outlier count inconsistent with codes");
  stream.count = count;
  stream.codes.resize(count * config.code_bytes());
  stream.outliers.resize(escapes);
}

}  // namespace dpz
