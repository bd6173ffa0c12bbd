// AVX2 kernels. This TU is the only x86-vector code in the tree (the
// dpz_analyze simd-isolated rule pins intrinsics to src/simd/) and is
// compiled with -mavx2 -ffp-contract=off while the rest of the build
// stays baseline-ISA. No FMA anywhere: the bit-exactness contract
// requires multiply and add to round separately, exactly like the
// scalar reference. Reductions run the documented sixteen-lane tree as
// four vector accumulators (acc_j carries lanes 4j..4j+3); four
// independent chains hide the add latency that a single accumulator
// serializes on.
#include "simd/kernel_tables.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>
#include <utility>

#include "simd/scalar_ops.h"

namespace dpz::simd {

namespace {

// Folds the four accumulators (lanes 4j..4j+3 in acc_j) in contract
// order: vector add gives a_l = (s_l + s_{l+8}) + (s_{l+4} + s_{l+12})
// per lane, then the horizontal sum (a0+a2)+(a1+a3).
inline double reduce_lanes(__m256d acc0, __m256d acc1, __m256d acc2,
                           __m256d acc3) {
  const __m256d a = _mm256_add_pd(_mm256_add_pd(acc0, acc2),
                                  _mm256_add_pd(acc1, acc3));
  const __m128d lo = _mm256_castpd256_pd128(a);     // [a0, a1]
  const __m128d hi = _mm256_extractf128_pd(a, 1);   // [a2, a3]
  const __m128d pair = _mm_add_pd(lo, hi);          // [a0+a2, a1+a3]
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n16; i += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                             _mm256_loadu_pd(y + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                             _mm256_loadu_pd(y + i + 4)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(x + i + 8),
                                             _mm256_loadu_pd(y + i + 8)));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(x + i + 12),
                                             _mm256_loadu_pd(y + i + 12)));
  }
  return detail::dot_tail(reduce_lanes(acc0, acc1, acc2, acc3), x, y, n16,
                          n);
}

double dot_centered_avx2(const double* x, double mx, const double* y,
                         double my, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n16; i += 16) {
    const __m256d d0 =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vmx),
                      _mm256_sub_pd(_mm256_loadu_pd(y + i), vmy));
    const __m256d d1 =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i + 4), vmx),
                      _mm256_sub_pd(_mm256_loadu_pd(y + i + 4), vmy));
    const __m256d d2 =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i + 8), vmx),
                      _mm256_sub_pd(_mm256_loadu_pd(y + i + 8), vmy));
    const __m256d d3 =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i + 12), vmx),
                      _mm256_sub_pd(_mm256_loadu_pd(y + i + 12), vmy));
    acc0 = _mm256_add_pd(acc0, d0);
    acc1 = _mm256_add_pd(acc1, d1);
    acc2 = _mm256_add_pd(acc2, d2);
    acc3 = _mm256_add_pd(acc3, d3);
  }
  return detail::dot_centered_tail(reduce_lanes(acc0, acc1, acc2, acc3), x,
                                   mx, y, my, n16, n);
}

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d va = _mm256_set1_pd(a);
  for (std::size_t i = 0; i < n4; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  for (std::size_t i = n4; i < n; ++i) detail::axpy_one(a, x[i], &y[i]);
}

void rank2_avx2(double f, const double* e, double g, const double* w,
                double* row, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vf = _mm256_set1_pd(f);
  const __m256d vg = _mm256_set1_pd(g);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d t = _mm256_add_pd(
        _mm256_mul_pd(vf, _mm256_loadu_pd(e + i)),
        _mm256_mul_pd(vg, _mm256_loadu_pd(w + i)));
    _mm256_storeu_pd(row + i,
                     _mm256_sub_pd(_mm256_loadu_pd(row + i), t));
  }
  for (std::size_t i = n4; i < n; ++i)
    detail::rank2_one(f, e[i], g, w[i], &row[i]);
}

void center_scale_avx2(const double* x, double mu, double inv_s,
                       double* out, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vmu = _mm256_set1_pd(mu);
  const __m256d vs = _mm256_set1_pd(inv_s);
  for (std::size_t i = 0; i < n4; i += 4)
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vmu), vs));
  for (std::size_t i = n4; i < n; ++i)
    detail::center_scale_one(x[i], mu, inv_s, &out[i]);
}

void scale_shift_avx2(double s, double mu, double* x, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vs = _mm256_set1_pd(s);
  const __m256d vmu = _mm256_set1_pd(mu);
  for (std::size_t i = 0; i < n4; i += 4)
    _mm256_storeu_pd(
        x + i,
        _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), vs), vmu));
  for (std::size_t i = n4; i < n; ++i) detail::scale_shift_one(s, mu, &x[i]);
}

void scale_avx2(double a, double* x, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d va = _mm256_set1_pd(a);
  for (std::size_t i = 0; i < n4; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  for (std::size_t i = n4; i < n; ++i) x[i] *= a;
}

void divide_avx2(double s, double* x, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vs = _mm256_set1_pd(s);
  for (std::size_t i = 0; i < n4; i += 4)
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), vs));
  for (std::size_t i = n4; i < n; ++i) x[i] /= s;
}

void rot2_avx2(double c, double s, double* u, double* v, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d f = _mm256_loadu_pd(v + i);
    const __m256d uu = _mm256_loadu_pd(u + i);
    _mm256_storeu_pd(v + i, _mm256_add_pd(_mm256_mul_pd(vs, uu),
                                          _mm256_mul_pd(vc, f)));
    _mm256_storeu_pd(u + i, _mm256_sub_pd(_mm256_mul_pd(vc, uu),
                                          _mm256_mul_pd(vs, f)));
  }
  for (std::size_t i = n4; i < n; ++i) detail::rot2_one(c, s, &u[i], &v[i]);
}

// One row of the 4 x 8 tile: lo/hi accumulate the panel's two halves
// against the broadcast coefficient at `a`. With kMasked, a zero
// coefficient's products are ANDed to +0 (the compare is unordered, so
// a NaN coefficient keeps its term, as in the scalar `ar == 0.0` test).
template <bool kMasked>
inline void panel_row_avx2(const double* a, __m256d p0, __m256d p1,
                           __m256d& lo, __m256d& hi) {
  const __m256d ar = _mm256_broadcast_sd(a);
  __m256d t0 = _mm256_mul_pd(ar, p0);
  __m256d t1 = _mm256_mul_pd(ar, p1);
  if constexpr (kMasked) {
    const __m256d live = _mm256_cmp_pd(ar, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    t0 = _mm256_and_pd(t0, live);
    t1 = _mm256_and_pd(t1, live);
  }
  lo = _mm256_add_pd(lo, t0);
  hi = _mm256_add_pd(hi, t1);
}

// The tile in eight named accumulators, so they stay in registers for
// the whole depth; two panel loads and four broadcasts per step.
template <bool kMasked>
void panel_tile_avx2(const double* a, const double* panel,
                     std::size_t depth, double* out, std::size_t ldo) {
  double* o1 = out + ldo;
  double* o2 = o1 + ldo;
  double* o3 = o2 + ldo;
  __m256d c00 = _mm256_loadu_pd(out);
  __m256d c01 = _mm256_loadu_pd(out + 4);
  __m256d c10 = _mm256_loadu_pd(o1);
  __m256d c11 = _mm256_loadu_pd(o1 + 4);
  __m256d c20 = _mm256_loadu_pd(o2);
  __m256d c21 = _mm256_loadu_pd(o2 + 4);
  __m256d c30 = _mm256_loadu_pd(o3);
  __m256d c31 = _mm256_loadu_pd(o3 + 4);
  for (std::size_t t = 0; t < depth; ++t, a += 4, panel += 8) {
    const __m256d p0 = _mm256_loadu_pd(panel);
    const __m256d p1 = _mm256_loadu_pd(panel + 4);
    panel_row_avx2<kMasked>(a, p0, p1, c00, c01);
    panel_row_avx2<kMasked>(a + 1, p0, p1, c10, c11);
    panel_row_avx2<kMasked>(a + 2, p0, p1, c20, c21);
    panel_row_avx2<kMasked>(a + 3, p0, p1, c30, c31);
  }
  _mm256_storeu_pd(out, c00);
  _mm256_storeu_pd(out + 4, c01);
  _mm256_storeu_pd(o1, c10);
  _mm256_storeu_pd(o1 + 4, c11);
  _mm256_storeu_pd(o2, c20);
  _mm256_storeu_pd(o2 + 4, c21);
  _mm256_storeu_pd(o3, c30);
  _mm256_storeu_pd(o3 + 4, c31);
}

void panel_accumulate_avx2(const double* a, const double* panel,
                           std::size_t depth, bool finite, double* out,
                           std::size_t ldo) {
  if (finite) {
    panel_tile_avx2<false>(a, panel, depth, out, ldo);
  } else {
    panel_tile_avx2<true>(a, panel, depth, out, ldo);
  }
}

// Complex product of two packed pairs: [ar,ai,br,bi] lanes, with w in
// the same layout. addsub gives (ar*wr - ai*wi, ai*wr + ar*wi) with one
// rounding per part, exactly the scalar formula.
inline __m256d cmul2(__m256d a, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);        // [wr,wr,...]
  const __m256d wi = _mm256_permute_pd(w, 0xF);   // [wi,wi,...]
  const __m256d swapped = _mm256_permute_pd(a, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(a, wr),
                          _mm256_mul_pd(swapped, wi));
}

void cmul_avx2(const double* a, const double* b, double* out,
               std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  for (std::size_t i = 0; i < n2; i += 2)
    _mm256_storeu_pd(out + 2 * i, cmul2(_mm256_loadu_pd(a + 2 * i),
                                        _mm256_loadu_pd(b + 2 * i)));
  for (std::size_t i = n2; i < n; ++i)
    detail::cmul_one(a[2 * i], a[2 * i + 1], b[2 * i], b[2 * i + 1],
                     &out[2 * i], &out[2 * i + 1]);
}

void radix2_stage_avx2(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj) {
  const std::size_t half = len / 2;
  const __m256d conj_mask =
      conj ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) : _mm256_setzero_pd();
  if (half == 1) {
    // len == 2: w[0] is 1+0i; butterfly adjacent complex pairs, two
    // groups per iteration ([u0,v0],[u1,v1] -> [u0,u1],[v0,v1]).
    const __m256d wv = _mm256_xor_pd(
        _mm256_setr_pd(w[0], w[1], w[0], w[1]), conj_mask);
    std::size_t start = 0;
    for (; start + 4 <= n; start += 4) {
      const __m256d g0 = _mm256_loadu_pd(a + 2 * start);
      const __m256d g1 = _mm256_loadu_pd(a + 2 * start + 4);
      const __m256d u = _mm256_permute2f128_pd(g0, g1, 0x20);
      const __m256d v = _mm256_permute2f128_pd(g0, g1, 0x31);
      const __m256d t = cmul2(v, wv);
      const __m256d sum = _mm256_add_pd(u, t);
      const __m256d diff = _mm256_sub_pd(u, t);
      _mm256_storeu_pd(a + 2 * start,
                       _mm256_permute2f128_pd(sum, diff, 0x20));
      _mm256_storeu_pd(a + 2 * start + 4,
                       _mm256_permute2f128_pd(sum, diff, 0x31));
    }
    for (; start < n; start += 2)
      detail::butterfly_one(a + 2 * start, a + 2 * start + 2, w[0], w[1],
                            conj);
    return;
  }
  const std::size_t half2 = half & ~std::size_t{1};
  for (std::size_t start = 0; start < n; start += len) {
    double* u_base = a + 2 * start;
    double* v_base = a + 2 * (start + half);
    for (std::size_t k = 0; k < half2; k += 2) {
      const __m256d wv =
          _mm256_xor_pd(_mm256_loadu_pd(w + 2 * k), conj_mask);
      const __m256d v = _mm256_loadu_pd(v_base + 2 * k);
      const __m256d u = _mm256_loadu_pd(u_base + 2 * k);
      const __m256d t = cmul2(v, wv);
      _mm256_storeu_pd(u_base + 2 * k, _mm256_add_pd(u, t));
      _mm256_storeu_pd(v_base + 2 * k, _mm256_sub_pd(u, t));
    }
    for (std::size_t k = half2; k < half; ++k)
      detail::butterfly_one(u_base + 2 * k, v_base + 2 * k, w[2 * k],
                            w[2 * k + 1], conj);
  }
}

// t - iu and t + iu for two complexes per vector, the pair swapped when
// conj (detail::rotate_pair): with u' = [ui, ur], t - iu is t + (u'
// with its odd lanes negated) and t + iu is addsub(t, u').
inline void rotate_pair2(__m256d t, __m256d u, bool conj, double* lo,
                         double* hi) {
  const __m256d odd_sign = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d swapped = _mm256_permute_pd(u, 0x5);
  if (conj) std::swap(lo, hi);
  _mm256_storeu_pd(lo, _mm256_add_pd(t, _mm256_xor_pd(swapped, odd_sign)));
  _mm256_storeu_pd(hi, _mm256_addsub_pd(t, swapped));
}

void radix3_stage_avx2(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj) {
  const std::size_t m = len / 3;
  const std::size_t m2 = m & ~std::size_t{1};
  const __m256d conj_mask =
      conj ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) : _mm256_setzero_pd();
  const __m256d sin60 = _mm256_set1_pd(detail::kSin60);
  const __m256d half = _mm256_set1_pd(0.5);
  for (std::size_t start = 0; start < n; start += len) {
    double* x0 = a + 2 * start;
    double* x1 = x0 + 2 * m;
    double* x2 = x1 + 2 * m;
    for (std::size_t k = 0; k < m2; k += 2) {
      const __m256d b = cmul2(
          _mm256_loadu_pd(x1 + 2 * k),
          _mm256_xor_pd(_mm256_loadu_pd(w + 2 * k), conj_mask));
      const __m256d c = cmul2(
          _mm256_loadu_pd(x2 + 2 * k),
          _mm256_xor_pd(_mm256_loadu_pd(w + 2 * (m + k)), conj_mask));
      const __m256d sum = _mm256_add_pd(b, c);
      const __m256d d = _mm256_mul_pd(_mm256_sub_pd(b, c), sin60);
      const __m256d a0 = _mm256_loadu_pd(x0 + 2 * k);
      _mm256_storeu_pd(x0 + 2 * k, _mm256_add_pd(a0, sum));
      rotate_pair2(_mm256_sub_pd(a0, _mm256_mul_pd(sum, half)), d, conj,
                   x1 + 2 * k, x2 + 2 * k);
    }
    for (std::size_t k = m2; k < m; ++k)
      detail::butterfly3_one(x0, w, m, k, conj);
  }
}

void radix5_stage_avx2(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj) {
  const std::size_t m = len / 5;
  const std::size_t m2 = m & ~std::size_t{1};
  const __m256d conj_mask =
      conj ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) : _mm256_setzero_pd();
  const __m256d cos72 = _mm256_set1_pd(detail::kCos72);
  const __m256d sin72 = _mm256_set1_pd(detail::kSin72);
  const __m256d cos144 = _mm256_set1_pd(detail::kCos144);
  const __m256d sin144 = _mm256_set1_pd(detail::kSin144);
  for (std::size_t start = 0; start < n; start += len) {
    double* x[5];
    for (std::size_t q = 0; q < 5; ++q) x[q] = a + 2 * (start + q * m);
    for (std::size_t k = 0; k < m2; k += 2) {
      __m256d b[4];
      for (std::size_t j = 0; j < 4; ++j)
        b[j] = cmul2(_mm256_loadu_pd(x[j + 1] + 2 * k),
                     _mm256_xor_pd(_mm256_loadu_pd(w + 2 * (j * m + k)),
                                   conj_mask));
      const __m256d a1 = _mm256_add_pd(b[0], b[3]);
      const __m256d a2 = _mm256_add_pd(b[1], b[2]);
      const __m256d d1 = _mm256_sub_pd(b[0], b[3]);
      const __m256d d2 = _mm256_sub_pd(b[1], b[2]);
      const __m256d x0 = _mm256_loadu_pd(x[0] + 2 * k);
      _mm256_storeu_pd(x[0] + 2 * k,
                       _mm256_add_pd(_mm256_add_pd(x0, a1), a2));
      rotate_pair2(
          _mm256_add_pd(_mm256_add_pd(x0, _mm256_mul_pd(a1, cos72)),
                        _mm256_mul_pd(a2, cos144)),
          _mm256_add_pd(_mm256_mul_pd(d1, sin72), _mm256_mul_pd(d2, sin144)),
          conj, x[1] + 2 * k, x[4] + 2 * k);
      rotate_pair2(
          _mm256_add_pd(_mm256_add_pd(x0, _mm256_mul_pd(a1, cos144)),
                        _mm256_mul_pd(a2, cos72)),
          _mm256_sub_pd(_mm256_mul_pd(d1, sin144), _mm256_mul_pd(d2, sin72)),
          conj, x[2] + 2 * k, x[3] + 2 * k);
    }
    for (std::size_t k = m2; k < m; ++k)
      detail::butterfly5_one(x[0], w, m, k, conj);
  }
}

void cmul_real_scale_avx2(const double* w, const double* v, double s,
                          double* out, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vs = _mm256_set1_pd(s);
  for (std::size_t i = 0; i < n4; i += 4) {
    // Two packed complex pairs per input vector; gather the even/odd
    // (re/im) components of four consecutive values.
    const __m256d w01 = _mm256_loadu_pd(w + 2 * i);
    const __m256d w23 = _mm256_loadu_pd(w + 2 * i + 4);
    const __m256d v01 = _mm256_loadu_pd(v + 2 * i);
    const __m256d v23 = _mm256_loadu_pd(v + 2 * i + 4);
    const __m256d wre = _mm256_unpacklo_pd(w01, w23);  // [w0r,w2r,w1r,w3r]
    const __m256d wim = _mm256_unpackhi_pd(w01, w23);
    const __m256d vre = _mm256_unpacklo_pd(v01, v23);
    const __m256d vim = _mm256_unpackhi_pd(v01, v23);
    const __m256d re = _mm256_sub_pd(_mm256_mul_pd(wre, vre),
                                     _mm256_mul_pd(wim, vim));
    const __m256d scaled = _mm256_mul_pd(re, vs);  // [o0,o2,o1,o3]
    _mm256_storeu_pd(out + i,
                     _mm256_permute4x64_pd(scaled, 0b11011000));
  }
  for (std::size_t i = n4; i < n; ++i)
    out[i] = (w[2 * i] * v[2 * i] - w[2 * i + 1] * v[2 * i + 1]) * s;
}

void quantize_codes_avx2(const double* v, std::size_t n, double half,
                         double p, std::uint32_t bins, bool wide,
                         std::uint8_t* codes) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vlo = _mm256_set1_pd(-half);
  const __m256d vhi = _mm256_set1_pd(half);
  const __m256d vtwop = _mm256_set1_pd(2.0 * p);
  const __m128i vescape = _mm_set1_epi32(static_cast<int>(bins));
  const __m128i vmaxbin = _mm_set1_epi32(static_cast<int>(bins - 1));
  const __m256i lane_pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i pack_u8 = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1,
                                        -1, -1, -1, -1, -1, -1, -1);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const __m256d in_range =
        _mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_GE_OQ),
                      _mm256_cmp_pd(x, vhi, _CMP_LE_OQ));
    // Same arithmetic as the scalar path: (v+half)/(2p), truncated.
    // Out-of-range/NaN lanes produce garbage here and are blended away.
    const __m128i bin = _mm_min_epi32(
        _mm256_cvttpd_epi32(
            _mm256_div_pd(_mm256_add_pd(x, vhi), vtwop)),
        vmaxbin);
    const __m128i mask = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(in_range), lane_pick));
    const __m128i code = _mm_blendv_epi8(vescape, bin, mask);
    if (wide) {
      const __m128i packed = _mm_packus_epi32(code, code);
      std::memcpy(codes + 2 * i, &packed, 8);
    } else {
      const __m128i packed = _mm_shuffle_epi8(code, pack_u8);
      const int four = _mm_cvtsi128_si32(packed);
      std::memcpy(codes + i, &four, 4);
    }
  }
  for (std::size_t i = n4; i < n; ++i)
    detail::store_code(codes, i, wide,
                       detail::quantize_one(v[i], half, p, bins));
}

void dequantize_codes_avx2(const std::uint8_t* codes, std::size_t n,
                           double p, double half, bool wide,
                           double* out) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vp = _mm256_set1_pd(p);
  const __m256d vneg_half = _mm256_set1_pd(-half);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vone = _mm256_set1_pd(1.0);
  for (std::size_t i = 0; i < n4; i += 4) {
    __m128i raw;
    if (wide) {
      std::int64_t bits;
      std::memcpy(&bits, codes + 2 * i, 8);
      raw = _mm_cvtepu16_epi32(_mm_cvtsi64_si128(bits));
    } else {
      std::int32_t bits;
      std::memcpy(&bits, codes + i, 4);
      raw = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(bits));
    }
    const __m256d c = _mm256_cvtepi32_pd(raw);
    // -half + p*(2c+1), multiply/add order matching the scalar path
    // (2c and 2c+1 are exact; one rounding each for the mul and add).
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(c, vtwo), vone);
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(vneg_half, _mm256_mul_pd(vp, t)));
  }
  for (std::size_t i = n4; i < n; ++i)
    out[i] =
        detail::dequantize_one(detail::load_code(codes, i, wide), p, half);
}

}  // namespace

const KernelTable* avx2_table() {
  static constexpr KernelTable kTable = {
      dot_avx2,
      dot_centered_avx2,
      dot_ordered_rows_scalar,
      axpy_avx2,
      rank2_avx2,
      center_scale_avx2,
      scale_shift_avx2,
      scale_avx2,
      divide_avx2,
      rot2_avx2,
      panel_accumulate_avx2,
      cmul_avx2,
      radix2_stage_avx2,
      radix3_stage_avx2,
      radix5_stage_avx2,
      cmul_real_scale_avx2,
      quantize_codes_avx2,
      dequantize_codes_avx2,
  };
  return &kTable;
}

}  // namespace dpz::simd

#else  // !defined(__AVX2__)

namespace dpz::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace dpz::simd

#endif
