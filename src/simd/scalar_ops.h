// Internal: the per-element operations every kernel implementation is
// measured against. Vector kernels use these for their tails, so a tail
// element takes exactly the scalar path. This header is only included
// from kernel TUs, which all build with -ffp-contract=off — the contract
// depends on multiply and add rounding separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace dpz::simd::detail {

/// Serial tail of the sixteen-lane tree reduction: acc + sum of
/// remaining x[i]*y[i] terms, folded left to right.
inline double dot_tail(double acc, const double* x, const double* y,
                       std::size_t begin, std::size_t n) {
  for (std::size_t i = begin; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

inline double dot_centered_tail(double acc, const double* x, double mx,
                                const double* y, double my,
                                std::size_t begin, std::size_t n) {
  for (std::size_t i = begin; i < n; ++i)
    acc += (x[i] - mx) * (y[i] - my);
  return acc;
}

inline void axpy_one(double a, double x, double* y) { *y += a * x; }

inline void rank2_one(double f, double e, double g, double w,
                      double* row) {
  *row -= f * e + g * w;
}

inline void center_scale_one(double x, double mu, double inv_s,
                             double* out) {
  *out = (x - mu) * inv_s;
}

inline void scale_shift_one(double s, double mu, double* x) {
  *x = *x * s + mu;
}

inline void rot2_one(double c, double s, double* u, double* v) {
  const double f = *v;
  *v = s * *u + c * f;
  *u = c * *u - s * f;
}

/// (ar,ai)*(br,bi) with one rounding per part — matches libstdc++'s
/// std::complex product for finite operands.
inline void cmul_one(double ar, double ai, double br, double bi,
                     double* out_r, double* out_i) {
  *out_r = ar * br - ai * bi;
  *out_i = ar * bi + ai * br;
}

/// One radix-2 butterfly: u, v*w -> u+vw, u-vw (w conjugated when conj).
inline void butterfly_one(double* u, double* v, double wr, double wi,
                          bool conj) {
  if (conj) wi = -wi;
  double tr;
  double ti;
  cmul_one(v[0], v[1], wr, wi, &tr, &ti);
  const double ur = u[0];
  const double ui = u[1];
  u[0] = ur + tr;
  u[1] = ui + ti;
  v[0] = ur - tr;
  v[1] = ui - ti;
}

/// cos and sin of 2*pi/3, 2*pi/5 and 4*pi/5, rounded to double: the
/// radix-3 and radix-5 butterflies' constants, spelled as literals so
/// every ISA multiplies by the same bits whatever its libm.
inline constexpr double kSin60 = 0.86602540378443864676;
inline constexpr double kCos72 = 0.30901699437494742410;
inline constexpr double kSin72 = 0.95105651629515357212;
inline constexpr double kCos144 = -0.80901699437494742410;
inline constexpr double kSin144 = 0.58778525229247312917;

/// v * w with w conjugated when conj.
inline void twiddle_one(const double* v, const double* w, bool conj,
                        double* out_r, double* out_i) {
  cmul_one(v[0], v[1], w[0], conj ? -w[1] : w[1], out_r, out_i);
}

/// Writes t - i*u to lo and t + i*u to hi (swapped when conj): the
/// output pair of a radix-3 or radix-5 butterfly, whose inverse is the
/// forward with the pair exchanged.
inline void rotate_pair(double tr, double ti, double ur, double ui,
                        bool conj, double* lo, double* hi) {
  if (conj) std::swap(lo, hi);
  lo[0] = tr + ui;
  lo[1] = ti - ur;
  hi[0] = tr - ui;
  hi[1] = ti + ur;
}

/// One radix-3 butterfly on the complexes x_q = g[k + q*m] of a group
/// starting at g, twiddled by w[k + (q-1)*m] (conjugated when conj):
/// their 3-point DFT in place, or the unscaled inverse when conj. With
/// b = x1*w, c = x2*w': s = b+c, d = (b-c)*sin60, t = x0 - s*0.5, then
/// x0+s, t-id, t+id.
inline void butterfly3_one(double* g, const double* w, std::size_t m,
                           std::size_t k, bool conj) {
  double* x0 = g + 2 * k;
  double* x1 = x0 + 2 * m;
  double* x2 = x1 + 2 * m;
  double br;
  double bi;
  double cr;
  double ci;
  twiddle_one(x1, w + 2 * k, conj, &br, &bi);
  twiddle_one(x2, w + 2 * (m + k), conj, &cr, &ci);
  const double sr = br + cr;
  const double si = bi + ci;
  const double dr = (br - cr) * kSin60;
  const double di = (bi - ci) * kSin60;
  const double ar = x0[0];
  const double ai = x0[1];
  x0[0] = ar + sr;
  x0[1] = ai + si;
  rotate_pair(ar - sr * 0.5, ai - si * 0.5, dr, di, conj, x1, x2);
}

/// One radix-5 butterfly, laid out and conjugated like butterfly3_one.
/// With b_j = x_j*w_j, a1 = b1+b4, a2 = b2+b3, d1 = b1-b4, d2 = b2-b3:
///   y0 = (x0 + a1) + a2,
///   t1 = (x0 + a1*cos72) + a2*cos144,  u1 = d1*sin72 + d2*sin144,
///   t2 = (x0 + a1*cos144) + a2*cos72,  u2 = d1*sin144 - d2*sin72,
/// then y1, y4 = t1 -+ iu1 and y2, y3 = t2 -+ iu2.
inline void butterfly5_one(double* g, const double* w, std::size_t m,
                           std::size_t k, bool conj) {
  double* x[5];
  for (std::size_t q = 0; q < 5; ++q) x[q] = g + 2 * (q * m + k);
  double br[4];
  double bi[4];
  for (std::size_t j = 0; j < 4; ++j)
    twiddle_one(x[j + 1], w + 2 * (j * m + k), conj, &br[j], &bi[j]);
  const double a1r = br[0] + br[3];
  const double a1i = bi[0] + bi[3];
  const double a2r = br[1] + br[2];
  const double a2i = bi[1] + bi[2];
  const double d1r = br[0] - br[3];
  const double d1i = bi[0] - bi[3];
  const double d2r = br[1] - br[2];
  const double d2i = bi[1] - bi[2];
  const double x0r = x[0][0];
  const double x0i = x[0][1];
  x[0][0] = (x0r + a1r) + a2r;
  x[0][1] = (x0i + a1i) + a2i;
  rotate_pair((x0r + a1r * kCos72) + a2r * kCos144,
              (x0i + a1i * kCos72) + a2i * kCos144,
              d1r * kSin72 + d2r * kSin144, d1i * kSin72 + d2i * kSin144,
              conj, x[1], x[4]);
  rotate_pair((x0r + a1r * kCos144) + a2r * kCos72,
              (x0i + a1i * kCos144) + a2i * kCos72,
              d1r * kSin144 - d2r * kSin72, d1i * kSin144 - d2i * kSin72,
              conj, x[2], x[3]);
}

inline std::uint32_t quantize_one(double v, double half, double p,
                                  std::uint32_t bins) {
  if (!(v >= -half && v <= half)) return bins;  // escape; NaN lands here
  auto bin = static_cast<std::uint32_t>((v + half) / (2.0 * p));
  if (bin >= bins) bin = bins - 1;  // v == +half lands past the end
  return bin;
}

inline double dequantize_one(std::uint32_t code, double p, double half) {
  return -half + p * (2.0 * static_cast<double>(code) + 1.0);
}

inline std::uint32_t load_code(const std::uint8_t* codes, std::size_t i,
                               bool wide) {
  std::uint32_t code = codes[i * (wide ? 2 : 1)];
  if (wide) code |= static_cast<std::uint32_t>(codes[i * 2 + 1]) << 8;
  return code;
}

inline void store_code(std::uint8_t* codes, std::size_t i, bool wide,
                       std::uint32_t code) {
  codes[i * (wide ? 2 : 1)] = static_cast<std::uint8_t>(code & 0xFFU);
  if (wide)
    codes[i * 2 + 1] = static_cast<std::uint8_t>((code >> 8) & 0xFFU);
}

}  // namespace dpz::simd::detail
