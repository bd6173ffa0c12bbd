// Portable reference kernels. These define the bit patterns every other
// ISA must reproduce: the sixteen-lane reduction tree and the
// per-element operation orders live here as plain C++ (see simd.h for
// the contract).
#include "simd/kernel_tables.h"

#include <algorithm>

#include "simd/scalar_ops.h"

namespace dpz::simd {

namespace {

/// Folds the sixteen lane sums per the contract: four partials
/// a_l = (s_l + s_{l+8}) + (s_{l+4} + s_{l+12}), combined as
/// (a0 + a2) + (a1 + a3).
inline double combine_lanes(const double* s) {
  double a[4];
  for (std::size_t l = 0; l < 4; ++l)
    a[l] = (s[l] + s[l + 8]) + (s[l + 4] + s[l + 12]);
  return (a[0] + a[2]) + (a[1] + a[3]);
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  double s[16] = {};
  for (std::size_t i = 0; i < n16; i += 16)
    for (std::size_t l = 0; l < 16; ++l) s[l] += x[i + l] * y[i + l];
  return detail::dot_tail(combine_lanes(s), x, y, n16, n);
}

double dot_centered_scalar(const double* x, double mx, const double* y,
                           double my, std::size_t n) {
  const std::size_t n16 = n & ~std::size_t{15};
  double s[16] = {};
  for (std::size_t i = 0; i < n16; i += 16)
    for (std::size_t l = 0; l < 16; ++l)
      s[l] += (x[i + l] - mx) * (y[i + l] - my);
  return detail::dot_centered_tail(combine_lanes(s), x, mx, y, my, n16, n);
}

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) detail::axpy_one(a, x[i], &y[i]);
}

void rank2_scalar(double f, const double* e, double g, const double* w,
                  double* row, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    detail::rank2_one(f, e[i], g, w[i], &row[i]);
}

void center_scale_scalar(const double* x, double mu, double inv_s,
                         double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    detail::center_scale_one(x[i], mu, inv_s, &out[i]);
}

void scale_shift_scalar(double s, double mu, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) detail::scale_shift_one(s, mu, &x[i]);
}

void scale_scalar(double a, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

void divide_scalar(double s, double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] /= s;
}

void rot2_scalar(double c, double s, double* u, double* v,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) detail::rot2_one(c, s, &u[i], &v[i]);
}

// The contract, spelled plainly: the tile lives in locals for the
// whole depth, and a zero coefficient is skipped, so `finite` is
// irrelevant here.
void panel_accumulate_scalar(const double* a, const double* panel,
                             std::size_t depth, bool /*finite*/,
                             double* out, std::size_t ldo) {
  double acc[4][8];
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) acc[r][c] = out[r * ldo + c];
  for (std::size_t t = 0; t < depth; ++t) {
    const double* p = panel + 8 * t;
    for (std::size_t r = 0; r < 4; ++r) {
      const double ar = a[4 * t + r];
      if (ar == 0.0) continue;
      for (std::size_t c = 0; c < 8; ++c) acc[r][c] += ar * p[c];
    }
  }
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 8; ++c) out[r * ldo + c] = acc[r][c];
}

void cmul_scalar(const double* a, const double* b, double* out,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    detail::cmul_one(a[2 * i], a[2 * i + 1], b[2 * i], b[2 * i + 1],
                     &out[2 * i], &out[2 * i + 1]);
}

void radix2_stage_scalar(double* a, std::size_t n, std::size_t len,
                         const double* w, bool conj) {
  const std::size_t half = len / 2;
  for (std::size_t start = 0; start < n; start += len)
    for (std::size_t k = 0; k < half; ++k)
      detail::butterfly_one(a + 2 * (start + k),
                            a + 2 * (start + k + half), w[2 * k],
                            w[2 * k + 1], conj);
}

void cmul_real_scale_scalar(const double* w, const double* v, double s,
                            double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = (w[2 * i] * v[2 * i] - w[2 * i + 1] * v[2 * i + 1]) * s;
}

void quantize_codes_scalar(const double* v, std::size_t n, double half,
                           double p, std::uint32_t bins, bool wide,
                           std::uint8_t* codes) {
  for (std::size_t i = 0; i < n; ++i)
    detail::store_code(codes, i, wide,
                       detail::quantize_one(v[i], half, p, bins));
}

void dequantize_codes_scalar(const std::uint8_t* codes, std::size_t n,
                             double p, double half, bool wide,
                             double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] =
        detail::dequantize_one(detail::load_code(codes, i, wide), p, half);
}

}  // namespace

void dot_ordered_rows_scalar(const double* a, std::size_t lda,
                             std::size_t rows, const double* y,
                             std::size_t begin, std::size_t end,
                             double* acc) {
  std::size_t r = 0;
  // Four rows at a time: four independent chains keep the adder busy
  // where one chain would wait out each add's latency. The staircase
  // head (columns where not all four rows are active yet) runs first,
  // row by row; every chain still sees its terms in ascending order.
  for (; r + 4 <= rows; r += 4) {
    const double* x0 = a + r * lda;
    const double* x1 = x0 + lda;
    const double* x2 = x1 + lda;
    const double* x3 = x2 + lda;
    const std::size_t b = begin + r;
    const std::size_t body = std::min(b + 3, std::max(b, end));
    double s0 = acc[r];
    double s1 = acc[r + 1];
    double s2 = acc[r + 2];
    double s3 = acc[r + 3];
    for (std::size_t j = b; j < body; ++j) s0 += x0[j] * y[j];
    for (std::size_t j = b + 1; j < body; ++j) s1 += x1[j] * y[j];
    for (std::size_t j = b + 2; j < body; ++j) s2 += x2[j] * y[j];
    for (std::size_t j = b + 3; j < end; ++j) {
      s0 += x0[j] * y[j];
      s1 += x1[j] * y[j];
      s2 += x2[j] * y[j];
      s3 += x3[j] * y[j];
    }
    acc[r] = s0;
    acc[r + 1] = s1;
    acc[r + 2] = s2;
    acc[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    const double* x = a + r * lda;
    double s = acc[r];
    for (std::size_t j = begin + r; j < end; ++j) s += x[j] * y[j];
    acc[r] = s;
  }
}

void radix3_stage_scalar(double* a, std::size_t n, std::size_t len,
                         const double* w, bool conj) {
  for (std::size_t start = 0; start < n; start += len)
    for (std::size_t k = 0; k < len / 3; ++k)
      detail::butterfly3_one(a + 2 * start, w, len / 3, k, conj);
}

void radix5_stage_scalar(double* a, std::size_t n, std::size_t len,
                         const double* w, bool conj) {
  for (std::size_t start = 0; start < n; start += len)
    for (std::size_t k = 0; k < len / 5; ++k)
      detail::butterfly5_one(a + 2 * start, w, len / 5, k, conj);
}

const KernelTable& scalar_table() {
  static constexpr KernelTable kTable = {
      dot_scalar,
      dot_centered_scalar,
      dot_ordered_rows_scalar,
      axpy_scalar,
      rank2_scalar,
      center_scale_scalar,
      scale_shift_scalar,
      scale_scalar,
      divide_scalar,
      rot2_scalar,
      panel_accumulate_scalar,
      cmul_scalar,
      radix2_stage_scalar,
      radix3_stage_scalar,
      radix5_stage_scalar,
      cmul_real_scale_scalar,
      quantize_codes_scalar,
      dequantize_codes_scalar,
  };
  return kTable;
}

}  // namespace dpz::simd
