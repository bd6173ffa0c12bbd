// Kernel-equivalence harness for src/simd: every dispatched kernel must
// be bit-identical to the scalar reference for every ISA available on
// this machine, across randomized sizes (vector-width tails included),
// unaligned pointers, and adversarial values (signed zeros, denormals,
// huge magnitudes; NaN for the quantizer, whose contract includes it).
// Also covers the dispatch layer itself: selection logic over faked CPU
// feature bits, the DPZ_FORCE_ISA override, and the unsupported-ISA
// error path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <optional>
#include <utility>
#include <vector>

#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using dpz::Rng;
using dpz::simd::CpuFeatures;
using dpz::simd::Isa;
using dpz::simd::KernelTable;

// Bitwise comparison: NaNs with the same payload compare equal, +0/-0
// do not — exactly the equality the golden-archive suite relies on.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult buffers_match(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i]))
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i]
             << " (bits " << std::bit_cast<std::uint64_t>(a[i]) << " vs "
             << std::bit_cast<std::uint64_t>(b[i]) << ")";
  return ::testing::AssertionSuccess();
}

// Adversarial double stream: mixes ordinary values with signed zeros,
// denormals, and large magnitudes so rounding differences cannot hide.
double random_value(Rng& rng) {
  switch (rng.next_u64() % 16) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 1e-310;  // denormal
    case 3:
      return -1e308;
    case 4:
      return 1e-8;
    default:
      return rng.normal() * 3.0;
  }
}

std::vector<double> random_buffer(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = random_value(rng);
  return out;
}

// The sizes that matter for tail handling: below one vector, exact
// multiples, off-by-one around the 4-lane width, and large.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                              15, 16, 17, 31, 64, 100, 255, 1024};

// Offsets 0..3 doubles from a base allocation: offset 1 makes every
// pointer 8 (mod 32) — misaligned for 256-bit lanes.
constexpr std::size_t kMaxOffset = 4;
constexpr std::size_t kPad = 8;

struct Views {
  std::vector<double> storage;
  double* p;
  Views(const std::vector<double>& data, std::size_t offset)
      : storage(data.size() + kMaxOffset + kPad) {
    std::copy(data.begin(), data.end(), storage.begin() + offset);
    p = storage.data() + offset;
  }
  std::vector<double> out(std::size_t n) const {
    return std::vector<double>(p, p + n);
  }
};

class SimdKernelEquivalence : public ::testing::TestWithParam<Isa> {
 protected:
  const KernelTable& ref_ = dpz::simd::kernel_table(Isa::kScalar);
  const KernelTable& isa_ = dpz::simd::kernel_table(GetParam());
};

TEST_P(SimdKernelEquivalence, ReductionsMatchScalarTree) {
  Rng rng(7);
  for (const std::size_t n : kSizes) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const Views x(random_buffer(rng, n), off);
      const Views y(random_buffer(rng, n), (off + 1) % kMaxOffset);
      const double mx = random_value(rng);
      const double my = random_value(rng);
      EXPECT_TRUE(same_bits(ref_.dot(x.p, y.p, n), isa_.dot(x.p, y.p, n)))
          << "dot n=" << n << " off=" << off;
      EXPECT_TRUE(same_bits(ref_.dot_centered(x.p, mx, y.p, my, n),
                            isa_.dot_centered(x.p, mx, y.p, my, n)))
          << "dot_centered n=" << n << " off=" << off;
    }
  }
}

// The documented reduction contract, written out naively: lane l sums
// terms l, l+16, ...; lanes fold to a_l = (s_l+s_{l+8})+(s_{l+4}+s_{l+12})
// and combine (a0+a2)+(a1+a3); tail appended serially. The scalar table
// must implement exactly this (the other ISAs are then pinned
// transitively by the equivalence tests).
TEST(SimdKernelContract, ScalarDotImplementsDocumentedTree) {
  Rng rng(11);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_buffer(rng, n);
    const std::vector<double> y = random_buffer(rng, n);
    double lanes[16] = {};
    const std::size_t n16 = n & ~std::size_t{15};
    for (std::size_t i = 0; i < n16; ++i) lanes[i % 16] += x[i] * y[i];
    double partial[4];
    for (std::size_t l = 0; l < 4; ++l)
      partial[l] = (lanes[l] + lanes[l + 8]) + (lanes[l + 4] + lanes[l + 12]);
    double expect = (partial[0] + partial[2]) + (partial[1] + partial[3]);
    for (std::size_t i = n16; i < n; ++i) expect += x[i] * y[i];
    EXPECT_TRUE(same_bits(
        expect,
        dpz::simd::kernel_table(Isa::kScalar).dot(x.data(), y.data(), n)))
        << "n=" << n;
  }
}

// The staircase shapes dot_ordered_rows must handle: row counts around
// its four-row interleave, and column ranges that end before, inside
// and after the staircase head.
TEST_P(SimdKernelEquivalence, OrderedRowAccumulationMatches) {
  Rng rng(19);
  for (const std::size_t rows : {0, 1, 3, 4, 5, 8, 11}) {
    for (const std::size_t end : {0, 2, 5, 9, 17, 40, 100}) {
      for (std::size_t off = 0; off < kMaxOffset; ++off) {
        const std::size_t lda = 101;
        const std::size_t begin = 1 + off;
        const Views a(random_buffer(rng, rows * lda), off);
        const Views y(random_buffer(rng, lda), (off + 1) % kMaxOffset);
        const std::vector<double> acc = random_buffer(rng, rows);
        Views ref(acc, off);
        Views got(acc, (off + 2) % kMaxOffset);
        ref_.dot_ordered_rows(a.p, lda, rows, y.p, begin, end, ref.p);
        isa_.dot_ordered_rows(a.p, lda, rows, y.p, begin, end, got.p);
        EXPECT_TRUE(buffers_match(ref.out(rows), got.out(rows)))
            << "dot_ordered_rows rows=" << rows << " end=" << end;
      }
    }
  }
}

// The ordered accumulation's contract, spelled with the axpy kernel it
// stands in for: row r's sum equals acc[r] followed by one axpy of
// length 1 per column j = begin+r, ..., end-1 in ascending order (the
// Householder reduction's scatter). Products commute, so the operand
// order inside each term does not matter.
TEST(SimdKernelContract, OrderedRowsEqualAscendingAxpyScatter) {
  const KernelTable& ref = dpz::simd::kernel_table(Isa::kScalar);
  Rng rng(23);
  for (const std::size_t rows : {1, 4, 6, 9}) {
    for (const std::size_t end : {3, 7, 64}) {
      const std::size_t lda = 70;
      const std::size_t begin = 2;
      const std::vector<double> a = random_buffer(rng, rows * lda);
      const std::vector<double> y = random_buffer(rng, lda);
      const std::vector<double> acc = random_buffer(rng, rows);
      std::vector<double> expect = acc;
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t j = begin + r; j < end; ++j)
          ref.axpy(y[j], &a[r * lda + j], &expect[r], 1);
      // The reference table, and the dispatched one (which the
      // DPZ_FORCE_ISA=scalar CI run pins to the reference).
      for (const KernelTable* table : {&ref, &dpz::simd::kernels()}) {
        std::vector<double> got = acc;
        table->dot_ordered_rows(a.data(), lda, rows, y.data(), begin, end,
                                got.data());
        EXPECT_TRUE(buffers_match(expect, got))
            << "rows=" << rows << " end=" << end;
      }
    }
  }
}

TEST_P(SimdKernelEquivalence, ElementwiseKernelsMatch) {
  Rng rng(13);
  for (const std::size_t n : kSizes) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const std::vector<double> xv = random_buffer(rng, n);
      const std::vector<double> yv = random_buffer(rng, n);
      const double a = random_value(rng);
      const double b = random_value(rng);
      const Views x(xv, off);

      {
        Views ry(yv, off), iy(yv, (off + 2) % kMaxOffset);
        ref_.axpy(a, x.p, ry.p, n);
        isa_.axpy(a, x.p, iy.p, n);
        EXPECT_TRUE(buffers_match(ry.out(n), iy.out(n))) << "axpy n=" << n;
      }
      {
        Views ry(yv, off), iy(yv, (off + 2) % kMaxOffset);
        const Views e(random_buffer(rng, n), (off + 1) % kMaxOffset);
        ref_.rank2_update(a, e.p, b, x.p, ry.p, n);
        isa_.rank2_update(a, e.p, b, x.p, iy.p, n);
        EXPECT_TRUE(buffers_match(ry.out(n), iy.out(n)))
            << "rank2_update n=" << n;
      }
      {
        Views ry(yv, off), iy(yv, (off + 2) % kMaxOffset);
        ref_.center_scale(x.p, a, b, ry.p, n);
        isa_.center_scale(x.p, a, b, iy.p, n);
        EXPECT_TRUE(buffers_match(ry.out(n), iy.out(n)))
            << "center_scale n=" << n;
      }
      {
        Views rx(xv, off), ix(xv, (off + 2) % kMaxOffset);
        ref_.scale_shift(a, b, rx.p, n);
        isa_.scale_shift(a, b, ix.p, n);
        EXPECT_TRUE(buffers_match(rx.out(n), ix.out(n)))
            << "scale_shift n=" << n;
      }
      {
        Views rx(xv, off), ix(xv, (off + 2) % kMaxOffset);
        ref_.scale(a, rx.p, n);
        isa_.scale(a, ix.p, n);
        EXPECT_TRUE(buffers_match(rx.out(n), ix.out(n))) << "scale n=" << n;
      }
      {
        const double s = a == 0.0 ? 3.0 : a;
        Views rx(xv, off), ix(xv, (off + 2) % kMaxOffset);
        ref_.divide(s, rx.p, n);
        isa_.divide(s, ix.p, n);
        EXPECT_TRUE(buffers_match(rx.out(n), ix.out(n))) << "divide n=" << n;
      }
      {
        const double c = std::cos(a);
        const double s = std::sin(a);
        Views ru(xv, off), iu(xv, (off + 2) % kMaxOffset);
        Views rv(yv, off), iv(yv, (off + 2) % kMaxOffset);
        ref_.rot2(c, s, ru.p, rv.p, n);
        isa_.rot2(c, s, iu.p, iv.p, n);
        EXPECT_TRUE(buffers_match(ru.out(n), iu.out(n))) << "rot2 u n=" << n;
        EXPECT_TRUE(buffers_match(rv.out(n), iv.out(n))) << "rot2 v n=" << n;
      }
    }
  }
}

// The panel product over depths around the unroll and tile shapes,
// unaligned tiles, and an output stride wider than the tile. Each depth
// runs twice: a finite panel with `finite` set (the unmasked path), and
// a panel with +-inf and NaN at steps whose four coefficients are zero
// (either sign), which must add nothing. The accumulators start with no
// -0, as the contract requires; NaN enters only against zero
// coefficients, so no two NaN payloads ever meet.
TEST_P(SimdKernelEquivalence, PanelAccumulateMatches) {
  Rng rng(29);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t depth : {0, 1, 2, 3, 7, 8, 33, 128}) {
    for (const bool finite : {true, false}) {
      for (std::size_t off = 0; off < kMaxOffset; ++off) {
        std::vector<double> av = random_buffer(rng, 4 * depth);
        std::vector<double> pv = random_buffer(rng, 8 * depth);
        for (std::size_t t = 0; t < depth && !finite; t += 3) {
          for (std::size_t r = 0; r < 4; ++r)
            av[4 * t + r] = r % 2 == 0 ? 0.0 : -0.0;
          pv[8 * t] = inf;
          pv[8 * t + 3] = -inf;
          pv[8 * t + 6] = nan;
        }
        const std::size_t ldo = 8 + off;
        std::vector<double> outv = random_buffer(rng, 4 * ldo);
        for (double& v : outv)
          if (v == 0.0) v = 0.0;  // no -0 on entry
        const Views a(av, off);
        const Views panel(pv, (off + 1) % kMaxOffset);
        Views ref(outv, off);
        Views got(outv, (off + 2) % kMaxOffset);
        ref_.panel_accumulate(a.p, panel.p, depth, finite, ref.p, ldo);
        isa_.panel_accumulate(a.p, panel.p, depth, finite, got.p, ldo);
        EXPECT_TRUE(buffers_match(ref.out(4 * ldo), got.out(4 * ldo)))
            << "panel_accumulate depth=" << depth << " finite=" << finite
            << " off=" << off;
      }
    }
  }
}

// The panel product's contract, spelled with the axpy kernel: output
// (r, c) is its starting value followed by one length-1 axpy per step t
// in ascending order, skipping zero coefficients.
TEST(SimdKernelContract, PanelAccumulateEqualsAscendingAxpyChain) {
  const KernelTable& ref = dpz::simd::kernel_table(Isa::kScalar);
  Rng rng(31);
  for (const std::size_t depth : {1, 5, 40}) {
    const std::vector<double> a = random_buffer(rng, 4 * depth);
    const std::vector<double> panel = random_buffer(rng, 8 * depth);
    std::vector<double> start = random_buffer(rng, 32);
    for (double& v : start)
      if (v == 0.0) v = 0.0;
    std::vector<double> expect = start;
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 8; ++c)
        for (std::size_t t = 0; t < depth; ++t)
          if (a[4 * t + r] != 0.0)
            ref.axpy(a[4 * t + r], &panel[8 * t + c], &expect[8 * r + c], 1);
    for (const KernelTable* table : {&ref, &dpz::simd::kernels()}) {
      std::vector<double> got = start;
      table->panel_accumulate(a.data(), panel.data(), depth, true,
                              got.data(), 8);
      EXPECT_TRUE(buffers_match(expect, got)) << "depth=" << depth;
    }
  }
}

// Complex kernels carry the finite-data contract, so the random stream
// here avoids the extreme magnitudes (products must stay finite).
double random_finite(Rng& rng) { return rng.normal() * 2.0; }

TEST_P(SimdKernelEquivalence, ComplexKernelsMatch) {
  Rng rng(17);
  for (const std::size_t n : kSizes) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      std::vector<double> av(2 * n);
      std::vector<double> bv(2 * n);
      for (double& v : av) v = random_finite(rng);
      for (double& v : bv) v = random_finite(rng);
      const Views a(av, off);
      const Views b(bv, (off + 1) % kMaxOffset);
      {
        Views rout(std::vector<double>(2 * n, 0.0), off);
        Views iout(std::vector<double>(2 * n, 0.0), (off + 2) % kMaxOffset);
        ref_.cmul(a.p, b.p, rout.p, n);
        isa_.cmul(a.p, b.p, iout.p, n);
        EXPECT_TRUE(buffers_match(rout.out(2 * n), iout.out(2 * n)))
            << "cmul n=" << n;
      }
      {
        // cmul matches std::complex multiplication for finite operands.
        std::vector<double> out(2 * n, 0.0);
        ref_.cmul(a.p, b.p, out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::complex<double> expect =
              std::complex<double>(a.p[2 * i], a.p[2 * i + 1]) *
              std::complex<double>(b.p[2 * i], b.p[2 * i + 1]);
          EXPECT_TRUE(same_bits(expect.real(), out[2 * i]));
          EXPECT_TRUE(same_bits(expect.imag(), out[2 * i + 1]));
        }
      }
      {
        Views rout(std::vector<double>(n, 0.0), off);
        Views iout(std::vector<double>(n, 0.0), (off + 2) % kMaxOffset);
        const double s = random_finite(rng);
        ref_.cmul_real_scale(a.p, b.p, s, rout.p, n);
        isa_.cmul_real_scale(a.p, b.p, s, iout.p, n);
        EXPECT_TRUE(buffers_match(rout.out(n), iout.out(n)))
            << "cmul_real_scale n=" << n;
      }
    }
  }
}

TEST_P(SimdKernelEquivalence, Radix2StagesMatch) {
  Rng rng(19);
  for (const std::size_t n : {std::size_t{2}, std::size_t{8},
                              std::size_t{64}, std::size_t{256}}) {
    for (std::size_t len = 2; len <= n; len <<= 1) {
      std::vector<double> data(2 * n);
      for (double& v : data) v = random_finite(rng);
      std::vector<double> w(len);  // len/2 twiddles
      for (std::size_t k = 0; k < len / 2; ++k) {
        const double ang = -2.0 * 3.14159265358979323846 *
                           static_cast<double>(k) / static_cast<double>(len);
        w[2 * k] = std::cos(ang);
        w[2 * k + 1] = std::sin(ang);
      }
      for (const bool conj : {false, true}) {
        for (std::size_t off = 0; off < kMaxOffset; ++off) {
          Views ra(data, off), ia(data, (off + 1) % kMaxOffset);
          ref_.radix2_stage(ra.p, n, len, w.data(), conj);
          isa_.radix2_stage(ia.p, n, len, w.data(), conj);
          EXPECT_TRUE(buffers_match(ra.out(2 * n), ia.out(2 * n)))
              << "radix2 n=" << n << " len=" << len << " conj=" << conj;
        }
      }
    }
  }
}

// The stage shapes a mixed-radix FFT produces: m = len/radix from 1
// (the first stage of an odd length, all tail) through odd and even
// vector-width multiples, one or several groups. The kernels do not
// assume unit twiddles, so random finite ones exercise every product.
TEST_P(SimdKernelEquivalence, OddRadixStagesMatch) {
  Rng rng(29);
  for (const std::size_t radix : {std::size_t{3}, std::size_t{5}}) {
    const auto stage = [&](const KernelTable& t) {
      return radix == 3 ? t.radix3_stage : t.radix5_stage;
    };
    for (const std::size_t m : {1, 2, 3, 4, 5, 7, 8, 16}) {
      for (const std::size_t groups : {1, 3}) {
        const std::size_t len = radix * m;
        const std::size_t n = len * groups;
        std::vector<double> data(2 * n);
        for (double& v : data) v = random_finite(rng);
        std::vector<double> w(2 * (len - m));
        for (double& v : w) v = random_finite(rng);
        for (const bool conj : {false, true}) {
          for (std::size_t off = 0; off < kMaxOffset; ++off) {
            Views ra(data, off), ia(data, (off + 1) % kMaxOffset);
            const Views wv(w, (off + 2) % kMaxOffset);
            stage(ref_)(ra.p, n, len, wv.p, conj);
            stage(isa_)(ia.p, n, len, wv.p, conj);
            EXPECT_TRUE(buffers_match(ra.out(2 * n), ia.out(2 * n)))
                << "radix " << radix << " n=" << n << " len=" << len
                << " conj=" << conj;
          }
        }
      }
    }
  }
}

// The documented butterflies, written out with std::complex: twiddle
// products (conjugated when conj), then the sums and differences in the
// order simd.h gives, the output pairs exchanged when conj.
using C = std::complex<double>;

// The butterfly constants as simd.h documents them: cos and sin of
// 2*pi/3, 2*pi/5 and 4*pi/5, rounded to double.
constexpr double kSin60 = 0.86602540378443864676;
constexpr double kCos72 = 0.30901699437494742410;
constexpr double kSin72 = 0.95105651629515357212;
constexpr double kCos144 = -0.80901699437494742410;
constexpr double kSin144 = 0.58778525229247312917;

C minus_i_times(C u) { return {u.imag(), -u.real()}; }
C plus_i_times(C u) { return {-u.imag(), u.real()}; }

std::vector<C> documented_radix3(const std::vector<C>& x,
                                 const std::vector<C>& w, bool conj) {
  const C b = x[1] * (conj ? std::conj(w[0]) : w[0]);
  const C c = x[2] * (conj ? std::conj(w[1]) : w[1]);
  const C s = b + c;
  const C d = (b - c) * kSin60;
  const C t = x[0] - s * 0.5;
  C y1 = t + minus_i_times(d);
  C y2 = t + plus_i_times(d);
  if (conj) std::swap(y1, y2);
  return {x[0] + s, y1, y2};
}

std::vector<C> documented_radix5(const std::vector<C>& x,
                                 const std::vector<C>& w, bool conj) {
  C b[4];
  for (std::size_t j = 0; j < 4; ++j)
    b[j] = x[j + 1] * (conj ? std::conj(w[j]) : w[j]);
  const C a1 = b[0] + b[3];
  const C a2 = b[1] + b[2];
  const C d1 = b[0] - b[3];
  const C d2 = b[1] - b[2];
  const C t1 = (x[0] + a1 * kCos72) + a2 * kCos144;
  const C u1 = d1 * kSin72 + d2 * kSin144;
  const C t2 = (x[0] + a1 * kCos144) + a2 * kCos72;
  const C u2 = d1 * kSin144 - d2 * kSin72;
  std::vector<C> y = {(x[0] + a1) + a2, t1 + minus_i_times(u1),
                      t2 + minus_i_times(u2), t2 + plus_i_times(u2),
                      t1 + plus_i_times(u1)};
  if (conj) {
    std::swap(y[1], y[4]);
    std::swap(y[2], y[3]);
  }
  return y;
}

TEST(SimdKernelContract, ScalarOddRadixStagesImplementDocumentedButterflies) {
  Rng rng(31);
  const KernelTable& ref = dpz::simd::kernel_table(Isa::kScalar);
  for (const std::size_t radix : {std::size_t{3}, std::size_t{5}}) {
    const std::size_t m = 3;
    const std::size_t len = radix * m;
    const std::size_t n = 2 * len;
    std::vector<double> data(2 * n);
    for (double& v : data) v = random_finite(rng);
    std::vector<double> w(2 * (len - m));
    for (double& v : w) v = random_finite(rng);
    for (const bool conj : {false, true}) {
      std::vector<double> out = data;
      (radix == 3 ? ref.radix3_stage : ref.radix5_stage)(out.data(), n, len,
                                                         w.data(), conj);
      for (std::size_t g = 0; g < n; g += len) {
        for (std::size_t k = 0; k < m; ++k) {
          std::vector<C> x(radix);
          std::vector<C> tw(radix - 1);
          for (std::size_t q = 0; q < radix; ++q) {
            const std::size_t i = g + k + q * m;
            x[q] = {data[2 * i], data[2 * i + 1]};
            if (q > 0)
              tw[q - 1] = {w[2 * ((q - 1) * m + k)],
                           w[2 * ((q - 1) * m + k) + 1]};
          }
          const std::vector<C> y = radix == 3
                                       ? documented_radix3(x, tw, conj)
                                       : documented_radix5(x, tw, conj);
          for (std::size_t q = 0; q < radix; ++q) {
            const std::size_t i = g + k + q * m;
            EXPECT_TRUE(same_bits(y[q].real(), out[2 * i]) &&
                        same_bits(y[q].imag(), out[2 * i + 1]))
                << "radix " << radix << " conj=" << conj << " g=" << g
                << " k=" << k << " q=" << q;
          }
        }
      }
    }
  }
}

// With unit twiddles a stage of one group is the radix-point DFT (the
// inverse DFT, unscaled, when conj), to within rounding.
TEST(SimdKernelContract, OddRadixStageIsTheSmallDft) {
  Rng rng(37);
  const KernelTable& ref = dpz::simd::kernel_table(Isa::kScalar);
  for (const std::size_t radix : {std::size_t{3}, std::size_t{5}}) {
    std::vector<double> x(2 * radix);
    for (double& v : x) v = random_finite(rng);
    std::vector<double> ones(2 * (radix - 1), 0.0);
    for (std::size_t j = 0; j + 1 < radix; ++j) ones[2 * j] = 1.0;
    for (const bool conj : {false, true}) {
      std::vector<double> y = x;
      (radix == 3 ? ref.radix3_stage : ref.radix5_stage)(
          y.data(), radix, radix, ones.data(), conj);
      for (std::size_t k = 0; k < radix; ++k) {
        C expect = 0.0;
        for (std::size_t j = 0; j < radix; ++j)
          expect += C(x[2 * j], x[2 * j + 1]) *
                    std::polar(1.0, (conj ? 2.0 : -2.0) * std::numbers::pi *
                                        static_cast<double>(j * k) /
                                        static_cast<double>(radix));
        EXPECT_NEAR(y[2 * k], expect.real(), 1e-14 * 8.0);
        EXPECT_NEAR(y[2 * k + 1], expect.imag(), 1e-14 * 8.0);
      }
    }
  }
}

TEST_P(SimdKernelEquivalence, QuantizerStripsMatch) {
  Rng rng(23);
  const double p = 1e-3;
  for (const bool wide : {false, true}) {
    const std::uint32_t bins = wide ? 65535U : 255U;
    const double half = p * static_cast<double>(bins);
    for (const std::size_t n : kSizes) {
      std::vector<double> values(n);
      for (double& v : values) {
        switch (rng.next_u64() % 8) {
          case 0:
            v = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1:
            v = 10.0 * half;  // escape
            break;
          case 2:
            v = half;  // boundary: clamps to bins-1
            break;
          case 3:
            v = -half;
            break;
          default:
            v = (rng.uniform() * 2.0 - 1.0) * half * 1.05;
        }
      }
      std::vector<std::uint8_t> ref_codes(n * (wide ? 2 : 1) + 8, 0xAB);
      std::vector<std::uint8_t> isa_codes(ref_codes);
      ref_.quantize_codes(values.data(), n, half, p, bins, wide,
                          ref_codes.data());
      isa_.quantize_codes(values.data(), n, half, p, bins, wide,
                          isa_codes.data());
      EXPECT_EQ(ref_codes, isa_codes) << "quantize n=" << n << " wide="
                                      << wide;

      std::vector<double> ref_out(n, -1.0);
      std::vector<double> isa_out(n, -2.0);
      ref_.dequantize_codes(ref_codes.data(), n, p, half, wide,
                            ref_out.data());
      isa_.dequantize_codes(isa_codes.data(), n, p, half, wide,
                            isa_out.data());
      EXPECT_TRUE(buffers_match(ref_out, isa_out))
          << "dequantize n=" << n << " wide=" << wide;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, SimdKernelEquivalence,
    ::testing::ValuesIn(dpz::simd::available_isas()),
    [](const ::testing::TestParamInfo<Isa>& param_info) {
      return dpz::simd::isa_name(param_info.param);
    });

// ---- dispatch-layer selection logic (faked CPU feature bits) ----------

TEST(SimdDispatch, SelectsHighestAvailableIsa) {
  CpuFeatures none;
  EXPECT_EQ(dpz::simd::select_isa(none, std::nullopt), Isa::kScalar);
  CpuFeatures avx2;
  avx2.avx2 = true;
  EXPECT_EQ(dpz::simd::select_isa(avx2, std::nullopt), Isa::kAvx2);
  CpuFeatures neon;
  neon.neon = true;
  EXPECT_EQ(dpz::simd::select_isa(neon, std::nullopt), Isa::kNeon);
}

TEST(SimdDispatch, OverrideWinsOverDetection) {
  CpuFeatures avx2;
  avx2.avx2 = true;
  EXPECT_EQ(dpz::simd::select_isa(avx2, Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(dpz::simd::select_isa(avx2, Isa::kAvx2), Isa::kAvx2);
}

TEST(SimdDispatch, ForcingUnsupportedIsaIsACleanError) {
  CpuFeatures none;
  EXPECT_THROW(dpz::simd::select_isa(none, Isa::kAvx2),
               dpz::InvalidArgument);
  EXPECT_THROW(dpz::simd::select_isa(none, Isa::kNeon),
               dpz::InvalidArgument);
  // Scalar is always executable.
  EXPECT_EQ(dpz::simd::select_isa(none, Isa::kScalar), Isa::kScalar);
}

TEST(SimdDispatch, ParseAndNameRoundTrip) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon})
    EXPECT_EQ(dpz::simd::parse_isa(dpz::simd::isa_name(isa)), isa);
  EXPECT_EQ(dpz::simd::parse_isa("sse9"), std::nullopt);
  EXPECT_EQ(dpz::simd::parse_isa(""), std::nullopt);
}

TEST(SimdDispatch, SetForceIsaSwitchesAndRestores) {
  const Isa initial = dpz::simd::active_isa();
  dpz::simd::set_force_isa(Isa::kScalar);
  EXPECT_EQ(dpz::simd::active_isa(), Isa::kScalar);
  // The dispatched table is the scalar table while forced.
  EXPECT_EQ(&dpz::simd::kernels(),
            &dpz::simd::kernel_table(Isa::kScalar));
  dpz::simd::set_force_isa(std::nullopt);
  EXPECT_EQ(dpz::simd::active_isa(), initial);
}

TEST(SimdDispatch, AvailableIsasAlwaysIncludesScalar) {
  const std::vector<Isa> isas = dpz::simd::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (const Isa isa : isas) {
    // Every advertised ISA must dispatch to a real table.
    EXPECT_NE(&dpz::simd::kernel_table(isa), nullptr);
  }
}

TEST(SimdDispatch, KernelTableForUnavailableIsaThrows) {
  const std::vector<Isa> isas = dpz::simd::available_isas();
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    const bool available =
        std::find(isas.begin(), isas.end(), isa) != isas.end();
    if (!available) {
      EXPECT_THROW(dpz::simd::kernel_table(isa), dpz::InvalidArgument);
    }
  }
}

}  // namespace
