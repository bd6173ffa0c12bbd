#include "baselines/mgard_like.h"

#include <cmath>

#include "codec/bytes.h"
#include "codec/huffman.h"
#include "codec/zlib_codec.h"
#include "core/layout.h"
#include "util/error.h"

namespace dpz {

namespace {

constexpr std::uint32_t kMagic = 0x3147474D;  // "MGG1"
constexpr std::uint32_t kRadius = 32768;
constexpr std::uint32_t kAlphabet = 65536;
constexpr std::uint32_t kUnpredictable = 0;

// Levels of the hierarchical transform on an n-node axis: spacings
// 1, 2, 4, ... while 2*spacing < n contribute one level each.
std::size_t level_count(std::size_t n) {
  std::size_t levels = 0;
  for (std::size_t s = 1; 2 * s < n; s *= 2) ++levels;
  return levels;
}

}  // namespace

void hierarchical_forward_1d(std::span<double> data, std::size_t n,
                             std::size_t stride) {
  // At spacing s, nodes at odd multiples of s are "fine": replace each by
  // its residual against linear interpolation of its spacing-2s coarse
  // neighbors. Coarse nodes (even multiples of 2s) pass through to the
  // next level.
  for (std::size_t s = 1; 2 * s < n; s *= 2) {
    for (std::size_t i = s; i < n; i += 2 * s) {
      const double left = data[(i - s) * stride];
      const double pred = (i + s < n)
                              ? 0.5 * (left + data[(i + s) * stride])
                              : left;
      data[i * stride] -= pred;
    }
  }
}

void hierarchical_inverse_1d(std::span<double> data, std::size_t n,
                             std::size_t stride) {
  if (n < 3) return;  // the forward pass had no levels either
  // Undo the levels coarse-to-fine: the forward spacings were
  // 1, 2, 4, ... while 2*s < n; replay them in reverse.
  std::size_t top = 1;
  while (2 * (2 * top) < n) top *= 2;
  for (std::size_t s = top;; s /= 2) {
    for (std::size_t i = s; i < n; i += 2 * s) {
      const double left = data[(i - s) * stride];
      const double pred = (i + s < n)
                              ? 0.5 * (left + data[(i + s) * stride])
                              : left;
      data[i * stride] += pred;
    }
    if (s == 1) break;
  }
}

namespace {

// Applies the 1-D transform along every axis of a rank-1..3 tensor.
void transform_all_axes(std::vector<double>& tensor,
                        const std::vector<std::size_t>& dims, bool forward) {
  std::vector<std::size_t> strides(dims.size(), 1);
  for (std::size_t d = dims.size() - 1; d-- > 0;)
    strides[d] = strides[d + 1] * dims[d + 1];
  std::size_t total = 1;
  for (const std::size_t d : dims) total *= d;

  for (std::size_t axis = 0; axis < dims.size(); ++axis) {
    const std::size_t n = dims[axis];
    if (n < 2) continue;
    const std::size_t stride = strides[axis];
    const std::size_t lines = total / n;

    // Enumerate line starts: all index combinations with axis index 0.
    std::vector<std::size_t> idx(dims.size(), 0);
    for (std::size_t li = 0; li < lines; ++li) {
      std::size_t start = 0;
      for (std::size_t d = 0; d < dims.size(); ++d)
        start += idx[d] * strides[d];

      const std::span<double> whole(tensor);
      if (forward) {
        hierarchical_forward_1d(whole.subspan(start), n, stride);
      } else {
        hierarchical_inverse_1d(whole.subspan(start), n, stride);
      }

      for (std::size_t d = dims.size(); d-- > 0;) {
        if (d == axis) continue;
        if (++idx[d] < dims[d]) break;
        idx[d] = 0;
      }
    }
  }
}

std::size_t total_levels(const std::vector<std::size_t>& dims) {
  std::size_t levels = 0;
  for (const std::size_t n : dims) levels += level_count(n);
  return std::max<std::size_t>(levels, 1);
}

}  // namespace

std::vector<std::uint8_t> mgard_like_compress(
    const FloatArray& data, const MgardLikeConfig& config) {
  DPZ_REQUIRE(data.rank() >= 1 && data.rank() <= 3,
              "MGARD-like supports rank 1-3 data");
  DPZ_REQUIRE(!data.empty(), "cannot compress empty data");

  const double eb = config.resolve_bound(data.value_range());
  DPZ_REQUIRE(eb > 0.0, "error bound must resolve to a positive value");

  const std::vector<std::size_t> dims = data.shape();
  std::vector<double> tensor(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    tensor[i] = static_cast<double>(data[i]);
  transform_all_axes(tensor, dims, /*forward=*/true);

  // Error accumulates at most once per level per axis on the inverse
  // path, so a per-coefficient budget of eb / total_levels guarantees the
  // pointwise bound.
  const double q = eb / static_cast<double>(total_levels(dims) + 1);
  const double inv_step = 1.0 / (2.0 * q);

  std::vector<std::uint32_t> codes(tensor.size(), kUnpredictable);
  std::vector<double> raw_values;  // f64: outliers keep the exact bound
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const double scaled = tensor[i] * inv_step;
    if (std::abs(scaled) < static_cast<double>(kRadius) - 1) {
      const long long bin = std::llround(scaled);
      codes[i] = static_cast<std::uint32_t>(bin +
                                            static_cast<long long>(kRadius));
      tensor[i] = static_cast<double>(bin) * 2.0 * q;  // reconstructed coeff
    } else {
      codes[i] = kUnpredictable;
      raw_values.push_back(tensor[i]);
    }
  }

  const std::vector<std::uint8_t> huffman = huffman_encode(codes, kAlphabet);
  ByteWriter raw_bytes;
  for (const double v : raw_values) raw_bytes.put_f64(v);

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_f64(eb);
  w.put_f64(q);
  detail::put_shape(w, dims);
  w.put_u64(raw_values.size());
  w.put_u64(huffman.size());
  w.put_blob(zlib_compress(huffman));
  w.put_u64(raw_bytes.size());
  w.put_blob(zlib_compress(raw_bytes.bytes()));
  return w.take();
}

FloatArray mgard_like_decompress(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  if (r.get_u32() != kMagic) throw FormatError("not an MGARD-like archive");
  const double eb = r.get_f64();
  const double q = r.get_f64();
  if (!(eb > 0.0) || !(q > 0.0))
    throw FormatError("MGARD-like archive: bad bounds");

  const std::vector<std::size_t> dims =
      detail::read_shape(r, "MGARD-like archive", 3);
  const auto total = static_cast<std::size_t>(detail::element_count(dims));

  const std::uint64_t raw_count = r.get_u64();
  if (raw_count > total)
    throw FormatError("MGARD-like archive: implausible raw-value count");
  const std::uint64_t huffman_size = r.get_u64();
  const std::vector<std::uint8_t> huffman =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(huffman_size));
  const std::uint64_t raw_bytes_size = r.get_u64();
  if (raw_bytes_size != raw_count * sizeof(double))
    throw FormatError("MGARD-like archive: raw section size mismatch");
  const std::vector<std::uint8_t> raw_bytes = zlib_decompress(
      r.get_blob(), static_cast<std::size_t>(raw_bytes_size));

  const std::vector<std::uint32_t> codes = huffman_decode(huffman);
  if (codes.size() != total)
    throw FormatError("MGARD-like archive: code count mismatch");

  ByteReader raw_reader(raw_bytes);
  std::vector<double> tensor(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (codes[i] == kUnpredictable) {
      tensor[i] = raw_reader.get_f64();
    } else {
      const long long bin = static_cast<long long>(codes[i]) -
                            static_cast<long long>(kRadius);
      tensor[i] = static_cast<double>(bin) * 2.0 * q;
    }
  }

  transform_all_axes(tensor, dims, /*forward=*/false);

  FloatArray out(dims);
  for (std::size_t i = 0; i < total; ++i)
    out[i] = static_cast<float>(tensor[i]);
  return out;
}

}  // namespace dpz
