// Unit and property tests for the FFT substrate: analytic DFTs,
// linearity, Parseval's identity, round-trips across the power-of-two,
// 2·3·5-smooth mixed-radix and Bluestein paths, cross-validation against
// a direct O(n^2) DFT, and pinned output bits for the lengths whose
// arithmetic must never move.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/fft.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"

namespace dpz {
namespace {

using Complex = std::complex<double>;

std::vector<Complex> naive_dft(const std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  // exp(-+2*pi*i*m/n) for every residue m = k*j mod n, so the reference
  // stays O(n^2) multiply-adds at the longest lengths tested.
  std::vector<Complex> roots(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t m = 0; m < n; ++m) {
    const double angle = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(m) / static_cast<double>(n);
    roots[m] = {std::cos(angle), std::sin(angle)};
  }
  std::vector<Complex> out(n, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) out[k] += x[j] * roots[k * j % n];
    if (inverse) out[k] /= static_cast<double>(n);
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  return x;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

TEST(Fft, LengthOneIsIdentity) {
  std::vector<Complex> x{{3.0, -2.0}};
  FftPlan(x.size()).execute(x, false);
  EXPECT_DOUBLE_EQ(x[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(x[0].imag(), -2.0);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  FftPlan(x.size()).execute(x, false);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalConcentratesInDc) {
  std::vector<Complex> x(16, {2.0, 0.0});
  FftPlan(x.size()).execute(x, false);
  EXPECT_NEAR(x[0].real(), 32.0, 1e-12);
  for (std::size_t k = 1; k < x.size(); ++k)
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 32;
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
        static_cast<double>(n);
    x[i] = {std::cos(angle), 0.0};
  }
  FftPlan(x.size()).execute(x, false);
  // cos splits between bins 5 and n-5 with weight n/2.
  EXPECT_NEAR(std::abs(x[5]), 16.0, 1e-10);
  EXPECT_NEAR(std::abs(x[n - 5]), 16.0, 1e-10);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 5 || k == n - 5) continue;
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-10);
  }
}

class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_signal(n, 100 + n);
  std::vector<Complex> fast = x;
  FftPlan(fast.size()).execute(fast, false);
  const std::vector<Complex> slow = naive_dft(x, false);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-8 * static_cast<double>(n))
      << "length " << n;
}

TEST_P(FftLengthTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_signal(n, 200 + n);
  std::vector<Complex> y = x;
  FftPlan(y.size()).execute(y, false);
  FftPlan(y.size()).execute(y, true);
  EXPECT_LT(max_abs_diff(x, y), 1e-10) << "length " << n;
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  std::vector<Complex> x = random_signal(n, 300 + n);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  FftPlan(x.size()).execute(x, false);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

// Powers of two, 2·3·5-smooth lengths (3, 5, 12, 30, 45, 100, 360, 1000)
// and Bluestein lengths (7, 17, 127, 343).
INSTANTIATE_TEST_SUITE_P(AllThreePaths, FftLengthTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 30,
                                           32, 45, 64, 100, 127, 128, 360,
                                           1000, 343));

bool is_smooth(std::size_t n) {
  for (const std::size_t r : {2, 3, 5})
    while (n % r == 0) n /= r;
  return n == 1;
}

// Every 2·3·5-smooth length up to 4096, odd and even, runs the
// mixed-radix stages; each must be a DFT to within rounding and undo
// itself.
TEST(Fft, EverySmoothLengthMatchesNaiveDftAndRoundTrips) {
  std::size_t tested = 0;
  for (std::size_t n = 2; n <= 4096; ++n) {
    if (!is_smooth(n)) continue;
    ++tested;
    const std::vector<Complex> x = random_signal(n, 400 + n);
    const FftPlan plan(n);
    std::vector<Complex> y = x;
    plan.execute(y, false);
    const double scale = std::sqrt(static_cast<double>(n));
    EXPECT_LT(max_abs_diff(y, naive_dft(x, false)), 1e-13 * scale * scale)
        << "length " << n;
    plan.execute(y, true);
    EXPECT_LT(max_abs_diff(x, y), 1e-14 * scale) << "length " << n;
  }
  EXPECT_EQ(tested, 136U);  // the 2·3·5-smooth n in [2, 4096]
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<Complex>& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(Complex); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Powers of two run only radix-2 stages, and Bluestein lengths only a
// power-of-two convolution, so their outputs must keep their bits when
// the other paths change: FNV-1a over the forward then the inverse
// output, on every ISA. A move here changes the archive bytes of every
// power-of-two block length. The digests follow the platform's libm
// (the twiddles come from cos/sin), like the golden fixtures.
TEST(Fft, PowerOfTwoAndBluesteinOutputBitsArePinned) {
  const std::pair<std::size_t, std::uint64_t> kPinned[] = {
      {2, 9251321823396263801ULL},      {4, 4602744554139162592ULL},
      {8, 10095228471409188862ULL},     {16, 10604872476154639028ULL},
      {32, 10472064196923417504ULL},    {64, 512726403458751ULL},
      {128, 13174451950053572881ULL},   {256, 13350005890921361ULL},
      {512, 2589966592308652952ULL},    {1024, 16929669286225518595ULL},
      {2048, 15534934481070065796ULL},  {4096, 7830186571929170570ULL},
      {8192, 9725604976717671466ULL},   {16384, 8262122603532733848ULL},
      {7, 7249902801388135497ULL},      {169, 13121363786192913501ULL},
      {343, 964652554267537435ULL},     {682, 10654149453423918414ULL},
      {1025, 13298656827181487721ULL},
  };
  for (const simd::Isa isa : simd::available_isas()) {
    simd::set_force_isa(isa);
    for (const auto& [n, digest] : kPinned) {
      Rng rng(n);
      std::vector<Complex> x(n);
      for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      const FftPlan plan(n);
      plan.execute(x, false);
      std::uint64_t h = fnv1a(1469598103934665603ULL, x);
      plan.execute(x, true);
      h = fnv1a(h, x);
      EXPECT_EQ(h, digest) << "length " << n << " on "
                           << simd::isa_name(isa);
    }
  }
  simd::set_force_isa(std::nullopt);
}

// The mixed-radix stages dispatch like the radix-2 ones: every ISA must
// produce the same bits at smooth lengths too.
TEST(Fft, SmoothLengthsGiveTheSameBitsOnEveryIsa) {
  for (const std::size_t n : {3, 5, 15, 45, 48, 360, 720, 900, 1800}) {
    const std::vector<Complex> x = random_signal(n, 500 + n);
    std::vector<std::uint64_t> digests;
    for (const simd::Isa isa : simd::available_isas()) {
      simd::set_force_isa(isa);
      std::vector<Complex> y = x;
      const FftPlan plan(n);
      plan.execute(y, false);
      std::uint64_t h = fnv1a(1469598103934665603ULL, y);
      plan.execute(y, true);
      digests.push_back(fnv1a(h, y));
    }
    simd::set_force_isa(std::nullopt);
    for (const std::uint64_t d : digests)
      EXPECT_EQ(d, digests.front()) << "length " << n;
  }
}

TEST(Fft, PlanIsReusable) {
  const FftPlan plan(64);
  const std::vector<Complex> x = random_signal(64, 9);
  std::vector<Complex> a = x, b = x;
  plan.execute(a, false);
  plan.execute(b, false);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Fft, PlanRejectsWrongLength) {
  const FftPlan plan(16);
  std::vector<Complex> x(8);
  EXPECT_THROW(plan.execute(x, false), InvalidArgument);
}

TEST(Fft, LinearityProperty) {
  const std::size_t n = 343;  // Bluestein path (7^3)
  const auto a = random_signal(n, 1), b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  std::vector<Complex> fa = a, fb = b, fsum = sum;
  FftPlan(fa.size()).execute(fa, false);
  FftPlan(fb.size()).execute(fb, false);
  FftPlan(fsum.size()).execute(fsum, false);
  std::vector<Complex> expect(n);
  for (std::size_t i = 0; i < n; ++i) expect[i] = 2.0 * fa[i] + 3.0 * fb[i];
  EXPECT_LT(max_abs_diff(fsum, expect), 1e-9);
}

TEST(Fft, PlanIsThreadSafeForConcurrentExecute) {
  // Plans are shared across the DCT worker threads; concurrent execute()
  // calls on distinct buffers must not interfere.
  const std::size_t n = 256;
  const FftPlan plan(n);
  const std::vector<Complex> input = random_signal(n, 999);
  std::vector<Complex> reference = input;
  plan.execute(reference, false);

  std::vector<std::vector<Complex>> buffers(8, input);
  std::vector<std::thread> threads;
  threads.reserve(buffers.size());
  for (auto& buffer : buffers)
    threads.emplace_back([&plan, &buffer] { plan.execute(buffer, false); });
  for (auto& t : threads) t.join();

  for (const auto& buffer : buffers)
    EXPECT_EQ(max_abs_diff(buffer, reference), 0.0);
}

TEST(Fft, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1U);
  EXPECT_EQ(next_power_of_two(2), 2U);
  EXPECT_EQ(next_power_of_two(3), 4U);
  EXPECT_EQ(next_power_of_two(1000), 1024U);
}

}  // namespace
}  // namespace dpz
