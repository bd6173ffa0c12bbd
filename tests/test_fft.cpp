// Unit and property tests for the FFT substrate: analytic DFTs,
// linearity, Parseval's identity, round-trips across power-of-two and
// Bluestein paths, and cross-validation against a direct O(n^2) DFT.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <thread>
#include <vector>

#include "dsp/fft.h"
#include "util/error.h"
#include "util/rng.h"

namespace dpz {
namespace {

using Complex = std::complex<double>;

std::vector<Complex> naive_dft(const std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, {0.0, 0.0});
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * j) /
                           static_cast<double>(n);
      out[k] += x[j] * Complex(std::cos(angle), std::sin(angle));
    }
    if (inverse) out[k] /= static_cast<double>(n);
  }
  // The naive inverse divides per element inside the loop above.
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

INSTANTIATE_TEST_SUITE_P(PowerOfTwoAndBluestein, FftLengthTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 30,
                                           32, 45, 64, 100, 127, 128, 360,
                                           1000));

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
  const std::size_t n = 48;  // Bluestein path
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

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

}  // namespace
}  // namespace dpz
