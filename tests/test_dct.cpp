// Unit and property tests for the orthonormal DCT-II/III: agreement with
// the O(n^2) oracle, orthonormality (Parseval), round-trips, energy
// compaction on smooth signals, and the shared per-length plan cache.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <numbers>
#include <vector>

#include "dsp/dct.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

class DctLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DctLengthTest, FastForwardMatchesNaive) {
  const std::size_t n = GetParam();
  const std::vector<double> x = random_vector(n, 10 + n);
  const DctPlan plan(n);
  std::vector<double> fast(n);
  plan.forward(x, fast);
  const std::vector<double> slow = dct_naive_forward(x);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9 * static_cast<double>(n))
      << "length " << n;
}

TEST_P(DctLengthTest, FastInverseMatchesNaive) {
  const std::size_t n = GetParam();
  const std::vector<double> x = random_vector(n, 20 + n);
  const DctPlan plan(n);
  std::vector<double> fast(n);
  plan.inverse(x, fast);
  const std::vector<double> slow = dct_naive_inverse(x);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9 * static_cast<double>(n))
      << "length " << n;
}

TEST_P(DctLengthTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const std::vector<double> x = random_vector(n, 30 + n);
  const DctPlan plan(n);
  std::vector<double> coeffs(n), back(n);
  plan.forward(x, coeffs);
  plan.inverse(coeffs, back);
  EXPECT_LT(max_abs_diff(x, back), 1e-10) << "length " << n;
}

TEST_P(DctLengthTest, ParsevalHolds) {
  // Orthonormal transform preserves the L2 norm exactly — this is what
  // makes the paper's ECR metric (Eq. 1) meaningful on coefficients.
  const std::size_t n = GetParam();
  const std::vector<double> x = random_vector(n, 40 + n);
  const DctPlan plan(n);
  std::vector<double> coeffs(n);
  plan.forward(x, coeffs);
  double ex = 0.0, ec = 0.0;
  for (const double v : x) ex += v * v;
  for (const double v : coeffs) ec += v * v;
  EXPECT_NEAR(ec, ex, 1e-9 * ex);
}

INSTANTIATE_TEST_SUITE_P(VariousLengths, DctLengthTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 10, 16,
                                           26, 27, 32, 45, 64, 100, 128, 360,
                                           500, 686, 1440, 1800, 2048));

TEST(Dct, ConstantSignalCompactsToDc) {
  const std::size_t n = 64;
  std::vector<double> x(n, 3.0);
  const DctPlan plan(n);
  std::vector<double> coeffs(n);
  plan.forward(x, coeffs);
  EXPECT_NEAR(coeffs[0], 3.0 * std::sqrt(static_cast<double>(n)), 1e-10);
  for (std::size_t k = 1; k < n; ++k) EXPECT_NEAR(coeffs[k], 0.0, 1e-10);
}

TEST(Dct, SmoothSignalEnergyConcentratesInLowFrequencies) {
  // The energy-compaction property SS II-B demonstrates on FLDSC.
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                    static_cast<double>(n)) +
           0.5 * std::cos(6.0 * std::numbers::pi * static_cast<double>(i) /
                          static_cast<double>(n));
  const DctPlan plan(n);
  std::vector<double> coeffs(n);
  plan.forward(x, coeffs);
  double low = 0.0, total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += coeffs[k] * coeffs[k];
    if (k < n / 16) low += coeffs[k] * coeffs[k];
  }
  EXPECT_GT(low / total, 0.99);
}

TEST(Dct, InPlaceAliasingWorks) {
  const std::size_t n = 100;
  std::vector<double> x = random_vector(n, 77);
  const std::vector<double> reference = dct_naive_forward(x);
  const DctPlan plan(n);
  plan.forward(x, x);  // in place
  EXPECT_LT(max_abs_diff(x, reference), 1e-9);
}

TEST(Dct, InverseInPlaceAliasingWorks) {
  // Even n folds into the half-length FFT, odd n runs the full-length one;
  // both write `out` straight from the transform's scratch.
  for (const std::size_t n : {std::size_t{100}, std::size_t{45}}) {
    std::vector<double> x = random_vector(n, 78 + n);
    const std::vector<double> reference = dct_naive_inverse(x);
    const DctPlan plan(n);
    plan.inverse(x, x);  // in place
    EXPECT_LT(max_abs_diff(x, reference), 1e-9) << "length " << n;
  }
}

TEST(Dct, PlanRejectsWrongLength) {
  const DctPlan plan(16);
  std::vector<double> x(8), y(8);
  EXPECT_THROW(plan.forward(x, y), InvalidArgument);
}

// ---- The per-length plan cache ----------------------------------------

TEST(DctPlanCache, SameLengthReturnsTheSamePlan) {
  const std::shared_ptr<const DctPlan> a = dct_plan(96);
  const std::shared_ptr<const DctPlan> b = dct_plan(96);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->size(), 96U);
  EXPECT_NE(dct_plan(97).get(), a.get());
}

// Even and odd lengths take different FFT paths; a cached plan must give
// the bits a freshly built one does, both ways.
TEST(DctPlanCache, MatchesAFreshPlanBitForBit) {
  for (const std::size_t n : {std::size_t{1440}, std::size_t{45}}) {
    const std::vector<double> x = random_vector(n, 90 + n);
    const DctPlan fresh(n);
    std::vector<double> want_fwd(n), got_fwd(n), want_inv(n), got_inv(n);
    fresh.forward(x, want_fwd);
    dct_plan(n)->forward(x, got_fwd);
    fresh.inverse(x, want_inv);
    dct_plan(n)->inverse(x, got_inv);
    EXPECT_EQ(std::memcmp(got_fwd.data(), want_fwd.data(), n * sizeof(double)),
              0)
        << "length " << n;
    EXPECT_EQ(std::memcmp(got_inv.data(), want_inv.data(), n * sizeof(double)),
              0)
        << "length " << n;
  }
}

// Pool workers look up a handful of lengths at once, as the frames of a
// chunked container do; every lookup must agree with a fresh plan (run
// under TSan in CI).
TEST(DctPlanCache, ConcurrentLookupsFromThePool) {
  constexpr std::size_t kLengths[] = {64, 100, 45, 1440};
  constexpr std::size_t kCalls = 64;
  std::vector<std::vector<double>> want(std::size(kLengths));
  for (std::size_t l = 0; l < std::size(kLengths); ++l) {
    want[l] = random_vector(kLengths[l], 200 + l);
    DctPlan(kLengths[l]).inverse(want[l], want[l]);
  }
  std::vector<int> ok(kCalls, 0);
  const ScopedThreads scope(4);
  parallel_for(0, kCalls, [&](std::size_t c) {
    const std::size_t l = c % std::size(kLengths);
    std::vector<double> x = random_vector(kLengths[l], 200 + l);
    dct_plan(kLengths[l])->inverse(x, x);
    ok[c] = std::memcmp(x.data(), want[l].data(),
                        x.size() * sizeof(double)) == 0;
  });
  for (std::size_t c = 0; c < kCalls; ++c) EXPECT_EQ(ok[c], 1) << "call " << c;
}

// The table is capped; a plan it drops stays usable by its holder.
TEST(DctPlanCache, PlanOutlivesEviction) {
  const std::shared_ptr<const DctPlan> held = dct_plan(24);
  for (std::size_t n = 300; n < 340; ++n) (void)dct_plan(n);
  const std::vector<double> x = random_vector(24, 7);
  std::vector<double> got(24), want(24);
  held->forward(x, got);
  DctPlan(24).forward(x, want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), 24 * sizeof(double)), 0);
  EXPECT_EQ(dct_plan(24)->size(), 24U);
}

}  // namespace
}  // namespace dpz
