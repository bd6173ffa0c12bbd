// Internal: the per-element operations every kernel implementation is
// measured against. Vector kernels use these for their tails, so a tail
// element takes exactly the scalar path. This header is only included
// from kernel TUs, which all build with -ffp-contract=off — the contract
// depends on multiply and add rounding separately.
#pragma once

#include <cstddef>
#include <cstdint>

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
