// NEON (aarch64 Advanced SIMD) kernels. float64x2_t carries two lanes,
// so the sixteen-lane reduction tree uses eight vector accumulators:
// acc_j holds lanes {2j, 2j+1}, and the fold below reproduces the
// contract's a_l = (s_l + s_{l+8}) + (s_{l+4} + s_{l+12}) partials and
// their (a0 + a2) + (a1 + a3) combination exactly. Like the AVX2 TU this
// file builds with -ffp-contract=off and never uses fused multiply-add —
// vfmaq would round differently from the scalar reference.
#include "simd/kernel_tables.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "simd/scalar_ops.h"

namespace dpz::simd {

namespace {

// Folds the eight accumulators (lanes {2j, 2j+1} in acc[j]) in contract
// order: even-indexed regs carry lanes l with (l mod 4) < 2, so
// (acc0+acc4)+(acc2+acc6) holds partials (a0, a1) and
// (acc1+acc5)+(acc3+acc7) holds (a2, a3); their vector sum gives
// (a0+a2, a1+a3), summed left to right.
inline double reduce_lanes_neon(const float64x2_t acc[8]) {
  const float64x2_t even = vaddq_f64(vaddq_f64(acc[0], acc[4]),
                                     vaddq_f64(acc[2], acc[6]));
  const float64x2_t odd = vaddq_f64(vaddq_f64(acc[1], acc[5]),
                                    vaddq_f64(acc[3], acc[7]));
  const float64x2_t pair = vaddq_f64(even, odd);
  return vgetq_lane_f64(pair, 0) + vgetq_lane_f64(pair, 1);
}

double dot_neon(const double* x, const double* y, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  float64x2_t acc[8];
  for (auto& a : acc) a = vdupq_n_f64(0.0);
  for (std::size_t i = 0; i < n16; i += 16)
    for (std::size_t j = 0; j < 8; ++j)
      acc[j] = vaddq_f64(acc[j], vmulq_f64(vld1q_f64(x + i + 2 * j),
                                           vld1q_f64(y + i + 2 * j)));
  return detail::dot_tail(reduce_lanes_neon(acc), x, y, n16, n);
}

double dot_centered_neon(const double* x, double mx, const double* y,
                         double my, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  const float64x2_t vmx = vdupq_n_f64(mx);
  const float64x2_t vmy = vdupq_n_f64(my);
  float64x2_t acc[8];
  for (auto& a : acc) a = vdupq_n_f64(0.0);
  for (std::size_t i = 0; i < n16; i += 16)
    for (std::size_t j = 0; j < 8; ++j)
      acc[j] = vaddq_f64(
          acc[j], vmulq_f64(vsubq_f64(vld1q_f64(x + i + 2 * j), vmx),
                            vsubq_f64(vld1q_f64(y + i + 2 * j), vmy)));
  return detail::dot_centered_tail(reduce_lanes_neon(acc), x, mx, y, my,
                                   n16, n);
}

void axpy_neon(double a, const double* x, double* y, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t va = vdupq_n_f64(a);
  for (std::size_t i = 0; i < n2; i += 2)
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i),
                               vmulq_f64(va, vld1q_f64(x + i))));
  for (std::size_t i = n2; i < n; ++i) detail::axpy_one(a, x[i], &y[i]);
}

void rank2_neon(double f, const double* e, double g, const double* w,
                double* row, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t vf = vdupq_n_f64(f);
  const float64x2_t vg = vdupq_n_f64(g);
  for (std::size_t i = 0; i < n2; i += 2) {
    const float64x2_t t = vaddq_f64(vmulq_f64(vf, vld1q_f64(e + i)),
                                    vmulq_f64(vg, vld1q_f64(w + i)));
    vst1q_f64(row + i, vsubq_f64(vld1q_f64(row + i), t));
  }
  for (std::size_t i = n2; i < n; ++i)
    detail::rank2_one(f, e[i], g, w[i], &row[i]);
}

void center_scale_neon(const double* x, double mu, double inv_s,
                       double* out, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t vmu = vdupq_n_f64(mu);
  const float64x2_t vs = vdupq_n_f64(inv_s);
  for (std::size_t i = 0; i < n2; i += 2)
    vst1q_f64(out + i,
              vmulq_f64(vsubq_f64(vld1q_f64(x + i), vmu), vs));
  for (std::size_t i = n2; i < n; ++i)
    detail::center_scale_one(x[i], mu, inv_s, &out[i]);
}

void scale_shift_neon(double s, double mu, double* x, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t vs = vdupq_n_f64(s);
  const float64x2_t vmu = vdupq_n_f64(mu);
  for (std::size_t i = 0; i < n2; i += 2)
    vst1q_f64(x + i, vaddq_f64(vmulq_f64(vld1q_f64(x + i), vs), vmu));
  for (std::size_t i = n2; i < n; ++i) detail::scale_shift_one(s, mu, &x[i]);
}

void scale_neon(double a, double* x, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t va = vdupq_n_f64(a);
  for (std::size_t i = 0; i < n2; i += 2)
    vst1q_f64(x + i, vmulq_f64(vld1q_f64(x + i), va));
  for (std::size_t i = n2; i < n; ++i) x[i] *= a;
}

void divide_neon(double s, double* x, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t i = 0; i < n2; i += 2)
    vst1q_f64(x + i, vdivq_f64(vld1q_f64(x + i), vs));
  for (std::size_t i = n2; i < n; ++i) x[i] /= s;
}

void rot2_neon(double c, double s, double* u, double* v, std::size_t n) {
  const std::size_t n2 = n & ~std::size_t{1};
  const float64x2_t vc = vdupq_n_f64(c);
  const float64x2_t vs = vdupq_n_f64(s);
  for (std::size_t i = 0; i < n2; i += 2) {
    const float64x2_t f = vld1q_f64(v + i);
    const float64x2_t uu = vld1q_f64(u + i);
    vst1q_f64(v + i, vaddq_f64(vmulq_f64(vs, uu), vmulq_f64(vc, f)));
    vst1q_f64(u + i, vsubq_f64(vmulq_f64(vc, uu), vmulq_f64(vs, f)));
  }
  for (std::size_t i = n2; i < n; ++i) detail::rot2_one(c, s, &u[i], &v[i]);
}

// The 4 x 8 tile in sixteen accumulators (row r in acc[r][0..3]), four
// panel loads per step. A non-finite panel takes the scalar skip of a
// zero coefficient; a finite one adds the +-0 product instead, which
// leaves the accumulator unchanged (see simd.h).
void panel_accumulate_neon(const double* a, const double* panel,
                           std::size_t depth, bool finite, double* out,
                           std::size_t ldo) {
  float64x2_t acc[4][4];
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t v = 0; v < 4; ++v)
      acc[r][v] = vld1q_f64(out + r * ldo + 2 * v);
  for (std::size_t t = 0; t < depth; ++t) {
    float64x2_t p[4];
    for (std::size_t v = 0; v < 4; ++v)
      p[v] = vld1q_f64(panel + 8 * t + 2 * v);
    for (std::size_t r = 0; r < 4; ++r) {
      const double ar = a[4 * t + r];
      if (!finite && ar == 0.0) continue;
      const float64x2_t va = vdupq_n_f64(ar);
      for (std::size_t v = 0; v < 4; ++v)
        acc[r][v] = vaddq_f64(acc[r][v], vmulq_f64(va, p[v]));
    }
  }
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t v = 0; v < 4; ++v)
      vst1q_f64(out + r * ldo + 2 * v, acc[r][v]);
}

// One packed complex value per 128-bit vector: [re, im].
inline float64x2_t cmul1(float64x2_t a, float64x2_t w) {
  const float64x2_t wr = vdupq_laneq_f64(w, 0);
  const float64x2_t wi = vdupq_laneq_f64(w, 1);
  const float64x2_t swapped = vextq_f64(a, a, 1);  // [im, re]
  const float64x2_t prod = vmulq_f64(swapped, wi); // [im*wi, re*wi]
  // (re*wr - im*wi, im*wr + re*wi): negate lane 0 of prod, then add.
  const float64x2_t signed_prod =
      vsetq_lane_f64(-vgetq_lane_f64(prod, 0), prod, 0);
  return vaddq_f64(vmulq_f64(a, wr), signed_prod);
}

void cmul_neon(const double* a, const double* b, double* out,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    vst1q_f64(out + 2 * i,
              cmul1(vld1q_f64(a + 2 * i), vld1q_f64(b + 2 * i)));
}

void radix2_stage_neon(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj) {
  const std::size_t half = len / 2;
  for (std::size_t start = 0; start < n; start += len) {
    double* u_base = a + 2 * start;
    double* v_base = a + 2 * (start + half);
    for (std::size_t k = 0; k < half; ++k) {
      float64x2_t wv = vld1q_f64(w + 2 * k);
      if (conj)
        wv = vsetq_lane_f64(-vgetq_lane_f64(wv, 1), wv, 1);
      const float64x2_t v = vld1q_f64(v_base + 2 * k);
      const float64x2_t u = vld1q_f64(u_base + 2 * k);
      const float64x2_t t = cmul1(v, wv);
      vst1q_f64(u_base + 2 * k, vaddq_f64(u, t));
      vst1q_f64(v_base + 2 * k, vsubq_f64(u, t));
    }
  }
}

void cmul_real_scale_neon(const double* w, const double* v, double s,
                          double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = (w[2 * i] * v[2 * i] - w[2 * i + 1] * v[2 * i + 1]) * s;
}

void quantize_codes_neon(const double* v, std::size_t n, double half,
                         double p, std::uint32_t bins, bool wide,
                         std::uint8_t* codes) {
  // The division + truncation path is already the cost here; keep the
  // element helper so NaN handling matches the scalar reference exactly.
  for (std::size_t i = 0; i < n; ++i)
    detail::store_code(codes, i, wide,
                       detail::quantize_one(v[i], half, p, bins));
}

void dequantize_codes_neon(const std::uint8_t* codes, std::size_t n,
                           double p, double half, bool wide,
                           double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] =
        detail::dequantize_one(detail::load_code(codes, i, wide), p, half);
}

}  // namespace

const KernelTable* neon_table() {
  static constexpr KernelTable kTable = {
      dot_neon,
      dot_centered_neon,
      dot_ordered_rows_scalar,
      axpy_neon,
      rank2_neon,
      center_scale_neon,
      scale_shift_neon,
      scale_neon,
      divide_neon,
      rot2_neon,
      panel_accumulate_neon,
      cmul_neon,
      radix2_stage_neon,
      radix3_stage_scalar,
      radix5_stage_scalar,
      cmul_real_scale_neon,
      quantize_codes_neon,
      dequantize_codes_neon,
  };
  return &kTable;
}

}  // namespace dpz::simd

#else  // !defined(__aarch64__)

namespace dpz::simd {
const KernelTable* neon_table() { return nullptr; }
}  // namespace dpz::simd

#endif
