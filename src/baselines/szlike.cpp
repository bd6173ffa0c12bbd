#include "baselines/szlike.h"

#include <cmath>

#include "codec/bytes.h"
#include "codec/huffman.h"
#include "codec/zlib_codec.h"
#include "core/layout.h"
#include "util/error.h"

namespace dpz {

namespace {

constexpr std::uint32_t kMagic = 0x315A4C53;  // "SLZ1"
constexpr std::uint32_t kRadius = 32768;      // quantization center
constexpr std::uint32_t kAlphabet = 65536;    // 2^16 bins incl. marker
constexpr std::uint32_t kUnpredictable = 0;   // reserved bin code

// Order-1 Lorenzo predictor over the reconstructed field. dims has rank
// 1-3 (trailing dimension fastest). Out-of-range neighbors read as 0.
class Lorenzo {
 public:
  Lorenzo(std::span<const std::size_t> dims, std::span<const double> field)
      : rank_(dims.size()), field_(field) {
    std::size_t stride = 1;
    for (std::size_t d = rank_; d-- > 0;) {
      strides_[d] = stride;
      stride *= dims[d];
    }
    for (std::size_t d = 0; d < rank_; ++d) dims_[d] = dims[d];
  }

  [[nodiscard]] double predict(std::size_t flat,
                               const std::size_t idx[3]) const {
    switch (rank_) {
      case 1:
        return at(idx[0] >= 1, flat - strides_[0]);
      case 2: {
        const bool i = idx[0] >= 1, j = idx[1] >= 1;
        return at(i, flat - strides_[0]) + at(j, flat - strides_[1]) -
               at(i && j, flat - strides_[0] - strides_[1]);
      }
      default: {  // rank 3: inclusion-exclusion over the 7 back neighbors
        const bool i = idx[0] >= 1, j = idx[1] >= 1, k = idx[2] >= 1;
        const std::size_t si = strides_[0], sj = strides_[1],
                          sk = strides_[2];
        return at(i, flat - si) + at(j, flat - sj) + at(k, flat - sk) -
               at(i && j, flat - si - sj) - at(i && k, flat - si - sk) -
               at(j && k, flat - sj - sk) +
               at(i && j && k, flat - si - sj - sk);
      }
    }
  }

 private:
  [[nodiscard]] double at(bool in_range, std::size_t flat) const {
    return in_range ? field_[flat] : 0.0;
  }

  std::size_t rank_;
  std::span<const double> field_;
  std::size_t strides_[3] = {0, 0, 0};
  std::size_t dims_[3] = {1, 1, 1};
};

// Advances a rank-1..3 odometer (trailing index fastest).
void advance_odometer(std::size_t idx[3], std::span<const std::size_t> dims) {
  for (std::size_t d = dims.size(); d-- > 0;) {
    if (++idx[d] < dims[d]) return;
    idx[d] = 0;
  }
}

}  // namespace

std::vector<std::uint8_t> szlike_compress(const FloatArray& data,
                                          const SzLikeConfig& config) {
  DPZ_REQUIRE(data.rank() >= 1 && data.rank() <= 3,
              "SZ-like supports rank 1-3 data");
  DPZ_REQUIRE(!data.empty(), "cannot compress empty data");

  const double eb = config.resolve_bound(data.value_range());
  DPZ_REQUIRE(eb > 0.0, "error bound must resolve to a positive value");
  const double inv_step = 1.0 / (2.0 * eb);

  const std::size_t n = data.size();
  std::vector<double> reconstructed(n, 0.0);
  std::vector<std::uint32_t> codes(n, kUnpredictable);
  std::vector<float> raw_values;

  const Lorenzo predictor(data.shape(), reconstructed);
  std::size_t idx[3] = {0, 0, 0};
  for (std::size_t flat = 0; flat < n; ++flat) {
    const double v = static_cast<double>(data[flat]);
    const double pred = predictor.predict(flat, idx);
    const double diff = v - pred;
    // Pre-check the magnitude before rounding: llround on a huge quotient
    // (tiny bound, wild residual) would overflow into undefined behavior.
    const double scaled = diff * inv_step;
    const bool in_band = std::abs(scaled) < static_cast<double>(kRadius) - 1;
    const long long q = in_band ? std::llround(scaled) : 0;

    // The decompressor emits float32, so validate the bound on the
    // float-cast reconstruction; both sides keep the float-rounded value
    // in the prediction field to stay in lockstep.
    const float rec = static_cast<float>(
        pred + static_cast<double>(q) * 2.0 * eb);
    if (in_band && q > -static_cast<long long>(kRadius) &&
        q < static_cast<long long>(kRadius) - 1 &&
        std::abs(static_cast<double>(rec) - v) <= eb) {
      const std::uint32_t code =
          static_cast<std::uint32_t>(q + static_cast<long long>(kRadius));
      codes[flat] = code;
      reconstructed[flat] = static_cast<double>(rec);
    } else {
      codes[flat] = kUnpredictable;
      raw_values.push_back(data[flat]);
      reconstructed[flat] = static_cast<double>(data[flat]);
    }
    advance_odometer(idx, data.shape());
  }

  const std::vector<std::uint8_t> huffman =
      huffman_encode(codes, kAlphabet);
  const std::vector<std::uint8_t> huffman_z =
      zlib_compress(huffman);

  ByteWriter raw_bytes;
  for (const float v : raw_values) raw_bytes.put_f32(v);
  const std::vector<std::uint8_t> raw_z =
      zlib_compress(raw_bytes.bytes());

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_f64(eb);
  detail::put_shape(w, data.shape());
  w.put_u64(raw_values.size());
  w.put_u64(huffman.size());
  w.put_blob(huffman_z);
  w.put_blob(raw_z);
  return w.take();
}

FloatArray szlike_decompress(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  if (r.get_u32() != kMagic) throw FormatError("not an SZ-like archive");
  const double eb = r.get_f64();
  if (!(eb > 0.0)) throw FormatError("SZ-like archive: bad error bound");
  const std::vector<std::size_t> shape =
      detail::read_shape(r, "SZ-like archive", 3);
  const std::uint64_t n = detail::element_count(shape);
  const std::uint64_t raw_count = r.get_u64();
  if (raw_count > n)
    throw FormatError("SZ-like archive: implausible raw-value count");
  const std::uint64_t huffman_size = r.get_u64();
  const std::vector<std::uint8_t> huffman =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(huffman_size));
  const std::vector<std::uint8_t> raw_bytes = zlib_decompress(
      r.get_blob(), static_cast<std::size_t>(raw_count) * sizeof(float));

  const std::vector<std::uint32_t> codes = huffman_decode(huffman);
  if (codes.size() != n)
    throw FormatError("SZ-like archive: code count mismatch");

  ByteReader raw_reader(raw_bytes);
  std::vector<double> reconstructed(n, 0.0);
  const Lorenzo predictor(shape, reconstructed);
  std::size_t idx[3] = {0, 0, 0};
  for (std::size_t flat = 0; flat < n; ++flat) {
    if (codes[flat] == kUnpredictable) {
      reconstructed[flat] = static_cast<double>(raw_reader.get_f32());
    } else {
      const double pred = predictor.predict(flat, idx);
      const long long q = static_cast<long long>(codes[flat]) -
                          static_cast<long long>(kRadius);
      // Match the compressor's float-rounded reconstruction exactly.
      reconstructed[flat] = static_cast<double>(static_cast<float>(
          pred + static_cast<double>(q) * 2.0 * eb));
    }
    advance_odometer(idx, shape);
  }

  FloatArray out(shape);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<float>(reconstructed[i]);
  return out;
}

}  // namespace dpz
