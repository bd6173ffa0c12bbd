#include "baselines/zfplike.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "codec/bitstream.h"
#include "codec/bytes.h"
#include "core/layout.h"
#include "util/error.h"

namespace dpz {

namespace {

constexpr std::uint32_t kMagic = 0x315A4658;  // "XFZ1"
constexpr unsigned kIntPrec = 32;             // bits of the integer domain
constexpr int kEmaxBias = 16384;
constexpr std::uint32_t kNbMask = 0xAAAAAAAAu;  // negabinary mask

using Int = std::int32_t;
using UInt = std::uint32_t;

// ---- ZFP's reversible lifting transform --------------------------------
//
// fwd:        ( 4  4  4  4)        inv:        ( 4  6 -4 -1)
//      1/16 * ( 5  1 -1 -5)              1/4 * ( 4  2  4  5)
//             (-4  4  4 -4)                    ( 4 -2  4 -5)
//             (-2  6 -6  2)                    ( 4 -6 -4  1)

// Lifting arithmetic runs on wrapping two's-complement values: a corrupt
// bit stream decodes to arbitrary 32-bit coefficients, so the adds,
// subtracts, and up-shifts below must be well-defined at every input.
// Signed overflow is UB even in C++20, so the wheel-work happens in UInt
// and only the value-preserving arithmetic right shift stays signed.
Int wrap_add(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) + static_cast<UInt>(b));
}
Int wrap_sub(Int a, Int b) {
  return static_cast<Int>(static_cast<UInt>(a) - static_cast<UInt>(b));
}
Int wrap_shl(Int a) { return static_cast<Int>(static_cast<UInt>(a) << 1); }

void fwd_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x = wrap_add(x, w); x >>= 1; w = wrap_sub(w, x);
  z = wrap_add(z, y); z >>= 1; y = wrap_sub(y, z);
  x = wrap_add(x, z); x >>= 1; z = wrap_sub(z, x);
  w = wrap_add(w, y); w >>= 1; y = wrap_sub(y, w);
  w = wrap_add(w, y >> 1); y = wrap_sub(y, w >> 1);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

void inv_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = wrap_add(y, w >> 1); w = wrap_sub(w, y >> 1);
  y = wrap_add(y, w); w = wrap_shl(w); w = wrap_sub(w, y);
  z = wrap_add(z, x); x = wrap_shl(x); x = wrap_sub(x, z);
  y = wrap_add(y, z); z = wrap_shl(z); z = wrap_sub(z, y);
  w = wrap_add(w, x); x = wrap_shl(x); x = wrap_sub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

// Applies the lifting along every dimension of a 4^d block (x fastest).
void fwd_transform(Int* block, std::size_t d) {
  if (d == 1) {
    fwd_lift(block, 1);
    return;
  }
  if (d == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(block + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(block + x, 4);
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      fwd_lift(block + 16 * z + 4 * y, 1);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(block + 16 * z + x, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(block + 4 * y + x, 16);
}

void inv_transform(Int* block, std::size_t d) {
  if (d == 1) {
    inv_lift(block, 1);
    return;
  }
  if (d == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(block + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(block + 4 * y, 1);
    return;
  }
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(block + 4 * y + x, 16);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(block + 16 * z + x, 4);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      inv_lift(block + 16 * z + 4 * y, 1);
}

// Total-sequency permutation: coefficients ordered by i+j+k (low to high),
// ties broken by flat index — the deterministic equivalent of ZFP's
// hand-rolled perm tables.
std::vector<std::size_t> sequency_order(std::size_t d) {
  const std::size_t size = std::size_t{1} << (2 * d);
  std::vector<std::size_t> order(size);
  std::iota(order.begin(), order.end(), 0);
  auto degree = [d](std::size_t flat) {
    std::size_t sum = 0;
    for (std::size_t dim = 0; dim < d; ++dim) {
      sum += flat & 3;
      flat >>= 2;
    }
    return sum;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return degree(a) < degree(b);
                   });
  return order;
}

UInt int_to_negabinary(Int x) {
  return (static_cast<UInt>(x) + kNbMask) ^ kNbMask;
}

Int negabinary_to_int(UInt u) {
  return static_cast<Int>((u ^ kNbMask) - kNbMask);
}

// Embedded coding of `size` negabinary coefficients, `maxprec` planes,
// MSB plane first, with ZFP's group-testing scheme.
void encode_planes(BitWriter& w, const UInt* data, std::size_t size,
                   unsigned maxprec) {
  std::size_t n = 0;
  for (unsigned k = kIntPrec; k-- > kIntPrec - maxprec;) {
    // Gather plane k (bit i of x = coefficient i's k-th bit).
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < size; ++i)
      x += static_cast<std::uint64_t>((data[i] >> k) & 1U) << i;

    // First n coefficients are already significant: verbatim bits.
    for (std::size_t i = 0; i < n; ++i) w.put_bit((x >> i) & 1U);
    // n reaches 64 once every coefficient is significant (a full 4x4x4
    // block); a 64-bit shift is UB, and the remainder is empty anyway.
    x = n < 64 ? x >> n : 0;

    // Group-test the remainder: one "any left?" bit, then a unary scan to
    // the next newly-significant coefficient.
    for (; n < size; x >>= 1, ++n) {
      w.put_bit(x != 0 ? 1U : 0U);
      if (x == 0) break;
      for (; n < size - 1; x >>= 1, ++n) {
        const unsigned bit = static_cast<unsigned>(x & 1U);
        w.put_bit(bit);
        if (bit != 0) break;
      }
    }
  }
}

void decode_planes(BitReader& r, UInt* data, std::size_t size,
                   unsigned maxprec) {
  std::fill_n(data, size, 0U);
  std::size_t n = 0;
  for (unsigned k = kIntPrec; k-- > kIntPrec - maxprec;) {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < n; ++i)
      x += static_cast<std::uint64_t>(r.get_bit()) << i;

    for (; n < size; ++n) {
      if (r.get_bit() == 0) break;  // no significant coefficients left
      for (; n < size - 1; ++n) {
        if (r.get_bit() != 0) break;  // unary scan found the next one
      }
      x += std::uint64_t{1} << n;
    }

    for (std::size_t i = 0; x != 0; ++i, x >>= 1)
      data[i] += static_cast<UInt>(x & 1U) << k;
  }
}

// Exponent of |v| in the frexp sense: v = f * 2^e with 0.5 <= |f| < 1.
int float_exponent(float v) {
  int e = 0;
  std::frexp(v, &e);
  return e;
}

unsigned block_precision(const ZfpLikeConfig& config, int emax,
                         std::size_t d) {
  if (config.mode == ZfpLikeConfig::Mode::kFixedPrecision)
    return std::clamp(config.precision, 1U, kIntPrec);
  // Fixed accuracy: keep planes down to the tolerance's exponent, plus the
  // headroom the d-dimensional transform needs (ZFP's 2*(d+1) margin).
  const int minexp = float_exponent(static_cast<float>(config.tolerance));
  const int prec = emax - minexp + 2 * (static_cast<int>(d) + 1);
  return static_cast<unsigned>(std::clamp(prec, 0, static_cast<int>(kIntPrec)));
}

// Gathers a 4^d block at the given origin, clamping out-of-range indices
// to the last valid sample (ZFP-style edge replication for partial blocks).
void gather_block(const FloatArray& data, const std::size_t origin[3],
                  std::size_t d, float* block) {
  const auto& shape = data.shape();
  const std::size_t ext[3] = {shape[0], d >= 2 ? shape[1] : 1,
                              d >= 3 ? shape[2] : 1};
  std::size_t strides[3] = {1, 1, 1};
  if (d >= 2) strides[0] = ext[1] * (d >= 3 ? ext[2] : 1);
  if (d == 2) strides[1] = 1;
  if (d >= 3) {
    strides[1] = ext[2];
    strides[2] = 1;
  }

  const std::size_t nx = d >= 1 ? 4 : 1;
  const std::size_t ny = d >= 2 ? 4 : 1;
  const std::size_t nz = d >= 3 ? 4 : 1;
  std::size_t slot = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++slot) {
        const std::size_t i0 = std::min(origin[0] + x, ext[0] - 1);
        const std::size_t i1 = d >= 2 ? std::min(origin[1] + y, ext[1] - 1) : 0;
        const std::size_t i2 = d >= 3 ? std::min(origin[2] + z, ext[2] - 1) : 0;
        block[slot] =
            data[i0 * strides[0] + i1 * strides[1] + i2 * strides[2]];
      }
}

void scatter_block(FloatArray& data, const std::size_t origin[3],
                   std::size_t d, const float* block) {
  const auto& shape = data.shape();
  const std::size_t ext[3] = {shape[0], d >= 2 ? shape[1] : 1,
                              d >= 3 ? shape[2] : 1};
  std::size_t strides[3] = {1, 1, 1};
  if (d >= 2) strides[0] = ext[1] * (d >= 3 ? ext[2] : 1);
  if (d == 2) strides[1] = 1;
  if (d >= 3) {
    strides[1] = ext[2];
    strides[2] = 1;
  }

  const std::size_t nx = d >= 1 ? 4 : 1;
  const std::size_t ny = d >= 2 ? 4 : 1;
  const std::size_t nz = d >= 3 ? 4 : 1;
  std::size_t slot = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++slot) {
        const std::size_t i0 = origin[0] + x;
        const std::size_t i1 = d >= 2 ? origin[1] + y : 0;
        const std::size_t i2 = d >= 3 ? origin[2] + z : 0;
        if (i0 >= ext[0] || i1 >= ext[1] || i2 >= ext[2]) continue;
        data[i0 * strides[0] + i1 * strides[1] + i2 * strides[2]] =
            block[slot];
      }
}

}  // namespace

std::vector<std::uint8_t> zfplike_compress(const FloatArray& data,
                                           const ZfpLikeConfig& config) {
  const std::size_t d = data.rank();
  DPZ_REQUIRE(d >= 1 && d <= 3, "ZFP-like supports rank 1-3 data");
  DPZ_REQUIRE(!data.empty(), "cannot compress empty data");
  if (config.mode == ZfpLikeConfig::Mode::kFixedAccuracy)
    DPZ_REQUIRE(config.tolerance > 0.0, "tolerance must be positive");

  const std::size_t size = std::size_t{1} << (2 * d);
  const std::vector<std::size_t> order = sequency_order(d);

  const auto& shape = data.shape();
  const std::size_t bx = (shape[0] + 3) / 4;
  const std::size_t by = d >= 2 ? (shape[1] + 3) / 4 : 1;
  const std::size_t bz = d >= 3 ? (shape[2] + 3) / 4 : 1;

  BitWriter bits;
  float block[64];
  Int iblock[64];
  UInt ublock[64];
  UInt reordered[64];

  for (std::size_t z = 0; z < bz; ++z) {
    for (std::size_t y = 0; y < by; ++y) {
      for (std::size_t x = 0; x < bx; ++x) {
        const std::size_t origin[3] = {x * 4, y * 4, z * 4};
        gather_block(data, origin, d, block);

        float peak = 0.0F;
        for (std::size_t i = 0; i < size; ++i)
          peak = std::max(peak, std::abs(block[i]));
        if (peak == 0.0F || !std::isfinite(peak)) {
          bits.put_bit(0);  // empty (or non-finite, clamped-to-zero) block
          continue;
        }
        bits.put_bit(1);

        const int emax = float_exponent(peak);
        bits.put_bits(static_cast<std::uint64_t>(emax + kEmaxBias), 16);

        // Block-floating-point: v * 2^(intprec - 2 - emax).
        const double scale =
            std::ldexp(1.0, static_cast<int>(kIntPrec) - 2 - emax);
        for (std::size_t i = 0; i < size; ++i)
          iblock[i] = static_cast<Int>(static_cast<double>(block[i]) * scale);

        fwd_transform(iblock, d);
        for (std::size_t i = 0; i < size; ++i)
          ublock[i] = int_to_negabinary(iblock[i]);
        for (std::size_t i = 0; i < size; ++i)
          reordered[i] = ublock[order[i]];

        encode_planes(bits, reordered, size,
                      block_precision(config, emax, d));
      }
    }
  }

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u8(config.mode == ZfpLikeConfig::Mode::kFixedPrecision ? 0 : 1);
  w.put_u32(config.precision);
  w.put_f64(config.tolerance);
  detail::put_shape(w, shape);
  w.put_blob(bits.take());
  return w.take();
}

FloatArray zfplike_decompress(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  if (r.get_u32() != kMagic) throw FormatError("not a ZFP-like archive");
  ZfpLikeConfig config;
  config.mode = r.get_u8() == 0 ? ZfpLikeConfig::Mode::kFixedPrecision
                                : ZfpLikeConfig::Mode::kFixedAccuracy;
  config.precision = r.get_u32();
  config.tolerance = r.get_f64();
  const std::vector<std::size_t> shape =
      detail::read_shape(r, "ZFP-like archive", 3);
  const std::size_t d = shape.size();
  const std::uint64_t total = detail::element_count(shape);
  const std::vector<std::uint8_t> payload = r.get_blob();
  // Every 4^d block emits at least its one occupancy bit, so the claimed
  // shape can cover at most 64 values per payload bit. Anything larger is
  // a forged header that must not size the output allocation.
  if (total > static_cast<std::uint64_t>(payload.size()) * 512)
    throw FormatError("ZFP-like archive: shape exceeds payload capacity");

  const std::size_t size = std::size_t{1} << (2 * d);
  const std::vector<std::size_t> order = sequency_order(d);

  FloatArray out(shape);
  const std::size_t bx = (shape[0] + 3) / 4;
  const std::size_t by = d >= 2 ? (shape[1] + 3) / 4 : 1;
  const std::size_t bz = d >= 3 ? (shape[2] + 3) / 4 : 1;

  BitReader bits(payload);
  float block[64];
  Int iblock[64];
  UInt ublock[64];
  UInt reordered[64];

  for (std::size_t z = 0; z < bz; ++z) {
    for (std::size_t y = 0; y < by; ++y) {
      for (std::size_t x = 0; x < bx; ++x) {
        const std::size_t origin[3] = {x * 4, y * 4, z * 4};
        if (bits.get_bit() == 0) {
          std::fill_n(block, size, 0.0F);
          scatter_block(out, origin, d, block);
          continue;
        }
        const int emax =
            static_cast<int>(bits.get_bits(16)) - kEmaxBias;

        decode_planes(bits, reordered, size,
                      block_precision(config, emax, d));
        for (std::size_t i = 0; i < size; ++i)
          ublock[order[i]] = reordered[i];
        for (std::size_t i = 0; i < size; ++i)
          iblock[i] = negabinary_to_int(ublock[i]);
        inv_transform(iblock, d);

        const double scale =
            std::ldexp(1.0, emax + 2 - static_cast<int>(kIntPrec));
        for (std::size_t i = 0; i < size; ++i)
          block[i] =
              static_cast<float>(static_cast<double>(iblock[i]) * scale);
        scatter_block(out, origin, d, block);
      }
    }
  }
  return out;
}

}  // namespace dpz
