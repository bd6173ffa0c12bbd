#include "baselines/tthresh_like.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "codec/bytes.h"
#include "codec/shuffle.h"
#include "codec/zlib_codec.h"
#include "core/layout.h"
#include "linalg/eigen_sym.h"
#include "util/error.h"

namespace dpz {

namespace {

constexpr std::uint32_t kMagic = 0x31485454;  // "TTH1"

// Row-major strides for up to rank-3 dims.
std::vector<std::size_t> strides_of(const std::vector<std::size_t>& dims) {
  std::vector<std::size_t> strides(dims.size(), 1);
  for (std::size_t d = dims.size() - 1; d-- > 0;)
    strides[d] = strides[d + 1] * dims[d + 1];
  return strides;
}

// Mode-n unfolding: rows indexed by the mode-n coordinate, columns by the
// remaining coordinates in row-major order of the other modes.
Matrix unfold(const std::vector<double>& tensor,
              const std::vector<std::size_t>& dims, std::size_t mode) {
  const std::size_t total = tensor.size();
  const std::size_t rows = dims[mode];
  const std::size_t cols = total / rows;
  const std::vector<std::size_t> strides = strides_of(dims);

  Matrix out(rows, cols);
  std::vector<std::size_t> idx(dims.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    std::size_t col = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (d == mode) continue;
      col = col * dims[d] + idx[d];
    }
    out(idx[mode], col) = tensor[flat];

    for (std::size_t d = dims.size(); d-- > 0;) {
      if (++idx[d] < dims[d]) break;
      idx[d] = 0;
    }
  }
  return out;
}

// Inverse of unfold with the same (dims, mode) convention. `rows` may
// differ from dims[mode] when a mode has been projected; the caller
// passes the output dims.
std::vector<double> fold(const Matrix& m,
                         const std::vector<std::size_t>& dims,
                         std::size_t mode) {
  std::size_t total = 1;
  for (const std::size_t d : dims) total *= d;
  DPZ_REQUIRE(m.rows() == dims[mode] && m.rows() * m.cols() == total,
              "fold dimension mismatch");

  std::vector<double> tensor(total);
  std::vector<std::size_t> idx(dims.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    std::size_t col = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (d == mode) continue;
      col = col * dims[d] + idx[d];
    }
    tensor[flat] = m(idx[mode], col);

    for (std::size_t d = dims.size(); d-- > 0;) {
      if (++idx[d] < dims[d]) break;
      idx[d] = 0;
    }
  }
  return tensor;
}

// Tensor-times-matrix along `mode`: result = op(U) applied to the mode-n
// fibers. transpose=true applies U^T (projection: mode size becomes
// u.cols()), transpose=false applies U (back-projection: mode size
// becomes u.rows()). `dims` is updated to the output shape.
std::vector<double> ttm(const std::vector<double>& tensor,
                        std::vector<std::size_t>& dims, std::size_t mode,
                        const Matrix& u, bool transpose) {
  const Matrix unfolded = unfold(tensor, dims, mode);
  const Matrix projected =
      transpose ? u.transpose_multiply(unfolded) : u.multiply(unfolded);
  dims[mode] = transpose ? u.cols() : u.rows();
  return fold(projected, dims, mode);
}

void put_f32_section(ByteWriter& w, std::span<const double> values) {
  ByteWriter raw;
  for (const double v : values) raw.put_f32(static_cast<float>(v));
  const auto shuffled = shuffle_bytes(raw.bytes(), sizeof(float));
  w.put_u64(shuffled.size());
  w.put_blob(zlib_compress(shuffled));
}

std::vector<double> get_f32_section(ByteReader& r, std::size_t count) {
  const std::uint64_t raw_size = r.get_u64();
  if (raw_size != count * sizeof(float))
    throw FormatError("TTHRESH-like: section size mismatch");
  const auto shuffled =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(raw_size));
  const auto raw = unshuffle_bytes(shuffled, sizeof(float));
  ByteReader reader(raw);
  std::vector<double> out(count);
  for (double& v : out) v = static_cast<double>(reader.get_f32());
  return out;
}

}  // namespace

std::vector<std::uint8_t> tthresh_like_compress(
    const FloatArray& data, const TthreshLikeConfig& config) {
  DPZ_REQUIRE(data.rank() >= 2 && data.rank() <= 3,
              "TTHRESH-like supports rank 2-3 tensors");
  DPZ_REQUIRE(config.energy > 0.0 && config.energy <= 1.0,
              "energy must be in (0, 1]");
  for (const std::size_t d : data.shape())
    DPZ_REQUIRE(d >= 2, "every tensor mode needs at least 2 entries");

  const std::vector<std::size_t> dims = data.shape();
  std::vector<double> tensor(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    tensor[i] = static_cast<double>(data[i]);

  // HOSVD factors: eigenvectors of each mode's Gram matrix.
  std::vector<Matrix> factors;
  for (std::size_t mode = 0; mode < dims.size(); ++mode) {
    const Matrix unfolded = unfold(tensor, dims, mode);
    const Matrix gram = unfolded.multiply(unfolded.transposed());
    factors.push_back(eigen_sym(gram).vectors);
  }

  // Core: project every mode.
  std::vector<double> core = tensor;
  std::vector<std::size_t> core_dims = dims;
  for (std::size_t mode = 0; mode < dims.size(); ++mode)
    core = ttm(core, core_dims, mode, factors[mode], /*transpose=*/true);

  // Energy thresholding: keep the largest-magnitude coefficients until
  // `energy` of the total is covered. Orthonormality of the HOSVD makes
  // the discarded energy equal the squared Frobenius error.
  std::vector<std::size_t> order(core.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(core[a]) > std::abs(core[b]);
  });
  double total_energy = 0.0;
  for (const double c : core) total_energy += c * c;

  std::vector<bool> keep(core.size(), false);
  double kept_energy = 0.0;
  std::size_t kept_count = 0;
  for (const std::size_t i : order) {
    if (kept_energy >= config.energy * total_energy && kept_count > 0)
      break;
    keep[i] = true;
    kept_energy += core[i] * core[i];
    ++kept_count;
  }

  // Tucker rank truncation: the kept coefficients cluster in the leading
  // corner of the core (factors are sorted by eigenvalue), so only the
  // leading r_n columns of each factor and the leading r-box of the core
  // need to be stored. This is what makes the tensor format pay off —
  // full square factors would exceed a 2-D input's own size.
  std::vector<std::size_t> ranks(dims.size(), 1);
  {
    std::vector<std::size_t> idx(dims.size(), 0);
    for (std::size_t flat = 0; flat < core.size(); ++flat) {
      if (keep[flat]) {
        for (std::size_t d = 0; d < dims.size(); ++d)
          ranks[d] = std::max(ranks[d], idx[d] + 1);
      }
      for (std::size_t d = dims.size(); d-- > 0;) {
        if (++idx[d] < core_dims[d]) break;
        idx[d] = 0;
      }
    }
  }

  // Crop the core and the mask to the rank box.
  std::size_t box_total = 1;
  for (const std::size_t r : ranks) box_total *= r;
  std::vector<double> kept_values;
  kept_values.reserve(kept_count);
  std::vector<std::uint8_t> mask((box_total + 7) / 8, 0);
  {
    std::vector<std::size_t> idx(dims.size(), 0);
    for (std::size_t flat = 0; flat < core.size(); ++flat) {
      bool inside = true;
      for (std::size_t d = 0; d < dims.size(); ++d)
        if (idx[d] >= ranks[d]) inside = false;
      if (inside && keep[flat]) {
        std::size_t box_flat = 0;
        for (std::size_t d = 0; d < dims.size(); ++d)
          box_flat = box_flat * ranks[d] + idx[d];
        mask[box_flat >> 3] |=
            static_cast<std::uint8_t>(1U << (box_flat & 7U));
        kept_values.push_back(core[flat]);
      }
      for (std::size_t d = dims.size(); d-- > 0;) {
        if (++idx[d] < core_dims[d]) break;
        idx[d] = 0;
      }
    }
  }

  ByteWriter w;
  w.put_u32(kMagic);
  detail::put_shape(w, dims);
  for (const std::size_t r : ranks) w.put_u64(r);
  w.put_f64(config.energy);
  w.put_u64(kept_values.size());

  for (std::size_t mode = 0; mode < dims.size(); ++mode) {
    // Leading ranks[mode] columns only.
    std::vector<double> flat;
    flat.reserve(dims[mode] * ranks[mode]);
    for (std::size_t i = 0; i < dims[mode]; ++i)
      for (std::size_t j = 0; j < ranks[mode]; ++j)
        flat.push_back(factors[mode](i, j));
    put_f32_section(w, flat);
  }
  w.put_u64(mask.size());
  w.put_blob(zlib_compress(mask));
  put_f32_section(w, kept_values);
  return w.take();
}

FloatArray tthresh_like_decompress(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  if (r.get_u32() != kMagic) throw FormatError("not a TTHRESH-like archive");
  const std::vector<std::size_t> dims =
      detail::read_shape(r, "TTHRESH-like archive", 3);
  if (dims.size() < 2) throw FormatError("TTHRESH-like archive: bad rank");
  for (const std::size_t d : dims)
    if (d < 2 || d > (1ULL << 24))
      throw FormatError("TTHRESH-like archive: implausible extent");
  std::vector<std::size_t> ranks(dims.size());
  std::size_t box_total = 1;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    ranks[d] = static_cast<std::size_t>(r.get_u64());
    if (ranks[d] == 0 || ranks[d] > dims[d])
      throw FormatError("TTHRESH-like archive: bad rank box");
    box_total *= ranks[d];
  }
  r.get_f64();  // recorded energy target (informational)
  const std::uint64_t kept_count = r.get_u64();
  if (kept_count > box_total)
    throw FormatError("TTHRESH-like archive: kept count exceeds core");

  std::vector<Matrix> factors;
  for (std::size_t mode = 0; mode < dims.size(); ++mode) {
    const std::vector<double> flat =
        get_f32_section(r, dims[mode] * ranks[mode]);
    factors.emplace_back(dims[mode], ranks[mode], flat);
  }

  const std::uint64_t mask_size = r.get_u64();
  if (mask_size != (box_total + 7) / 8)
    throw FormatError("TTHRESH-like archive: mask size mismatch");
  const std::vector<std::uint8_t> mask =
      zlib_decompress(r.get_blob(), static_cast<std::size_t>(mask_size));
  const std::vector<double> kept_values =
      get_f32_section(r, static_cast<std::size_t>(kept_count));

  std::vector<double> core(box_total, 0.0);
  std::size_t next = 0;
  for (std::size_t i = 0; i < box_total; ++i) {
    if ((mask[i >> 3] >> (i & 7U)) & 1U) {
      if (next >= kept_values.size())
        throw FormatError("TTHRESH-like archive: mask/values mismatch");
      core[i] = kept_values[next++];
    }
  }
  if (next != kept_values.size())
    throw FormatError("TTHRESH-like archive: unconsumed kept values");

  // Back-project every mode (each TTM expands mode d from ranks[d] back
  // to dims[d]).
  std::vector<double> tensor = core;
  std::vector<std::size_t> cur_dims = ranks;
  for (std::size_t mode = 0; mode < dims.size(); ++mode)
    tensor = ttm(tensor, cur_dims, mode, factors[mode],
                 /*transpose=*/false);

  FloatArray out(dims);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<float>(tensor[i]);
  return out;
}

}  // namespace dpz
