#include "dsp/dct.h"

#include <cmath>
#include <numbers>

#include "simd/simd.h"
#include "util/annotated_mutex.h"
#include "util/error.h"

namespace dpz {

DctPlan::DctPlan(std::size_t n)
    : n_(n),
      fft_(n % 2 == 1 ? n : 1),
      half_fft_(n % 2 == 0 && n >= 2 ? n / 2 : 1),
      scale0_(std::sqrt(1.0 / static_cast<double>(n))),
      scale_(std::sqrt(2.0 / static_cast<double>(n))) {
  DPZ_REQUIRE(n >= 1, "DCT length must be >= 1");
  shift_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double angle = -std::numbers::pi * static_cast<double>(k) /
                         (2.0 * static_cast<double>(n_));
    shift_[k] = {std::cos(angle), std::sin(angle)};
  }
  if (n_ % 2 == 0) {
    rt_.resize(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k) /
                           static_cast<double>(n_);
      rt_[k] = {std::cos(angle), std::sin(angle)};
    }
  }
}

void DctPlan::forward(std::span<const double> in,
                      std::span<double> out) const {
  DPZ_REQUIRE(in.size() == n_ && out.size() == n_,
              "DCT buffer length must match plan size");
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }

  // Makhoul reordering: v = [x0, x2, x4, ..., x5, x3, x1]. The loops
  // below fill every slot, so the per-thread scratch needs no zeroing.
  thread_local std::vector<std::complex<double>> v;
  v.resize(n_);
  const std::size_t half = (n_ + 1) / 2;
  if (n_ % 2 == 0) {
    // Real-input shortcut: pack adjacent reordered samples into n/2
    // complexes, transform once at half length, then untangle. With
    // E/O the DFTs of the even/odd-position subsequences of the packed
    // stream, V[k] = E[k] + w^k O[k] and V[n-k] = conj(V[k]).
    const std::size_t h = n_ / 2;
    auto reordered = [&](std::size_t p) {
      return p < half ? in[2 * p] : in[2 * (n_ - 1 - p) + 1];
    };
    thread_local std::vector<std::complex<double>> z;
    z.resize(h);
    for (std::size_t j = 0; j < h; ++j)
      z[j] = {reordered(2 * j), reordered(2 * j + 1)};
    half_fft_.execute(z, /*inverse=*/false);
    const std::complex<double> minus_half_i(0.0, -0.5);
    for (std::size_t k = 0; k <= h; ++k) {
      const std::complex<double> zk = z[k % h];
      const std::complex<double> znk = std::conj(z[(h - k) % h]);
      const std::complex<double> even = 0.5 * (zk + znk);
      const std::complex<double> odd = minus_half_i * (zk - znk);
      const std::complex<double> val = even + rt_[k] * odd;
      v[k] = val;
      if (k != 0 && k != h) v[n_ - k] = std::conj(val);
    }
  } else {
    for (std::size_t i = 0; i < half; ++i) v[i] = in[2 * i];
    for (std::size_t i = 0; i < n_ / 2; ++i) v[n_ - 1 - i] = in[2 * i + 1];

    fft_.execute(v, /*inverse=*/false);
  }

  // Unnormalized DCT-II coefficient: C[k] = Re(exp(-i*pi*k/2n) * V[k]).
  // The kernel computes the real part of the product directly with the
  // same per-part rounding as the std::complex formula. The casts ride
  // on std::complex's array-oriented access guarantee (see fft.cpp).
  out[0] = v[0].real() * scale0_;
  simd::kernels().cmul_real_scale(
      reinterpret_cast<const double*>(shift_.data() + 1),
      reinterpret_cast<const double*>(v.data() + 1), scale_, out.data() + 1,
      n_ - 1);
}

void DctPlan::inverse(std::span<const double> in,
                      std::span<double> out) const {
  DPZ_REQUIRE(in.size() == n_ && out.size() == n_,
              "DCT buffer length must match plan size");
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }

  // Undo the orthonormal scaling to recover the unnormalized C[k], then
  // invert the Makhoul construction: V[k] = exp(i*pi*k/2n)(C[k] - iC[n-k]).
  // Every read of `in` happens before the first write to `out`, so the
  // two may alias.
  auto spectrum = [&](std::size_t k) {
    if (k == 0) return std::complex<double>(in[0] / scale0_, 0.0);
    return std::conj(shift_[k]) *
           std::complex<double>(in[k] / scale_, -in[n_ - k] / scale_);
  };

  thread_local std::vector<std::complex<double>> z;
  if (n_ % 2 == 0) {
    // The Makhoul-reordered samples are real, so fold their spectrum into n/2
    // complexes Z[k] = E[k] + iO[k] — the forward's untangling run
    // backwards, with E[k] = (V[k] + V[k+h])/2, O[k] = (V[k] - V[k+h])/2w^k
    // and V[k+h] = conj(V[h-k]). One inverse transform at half length
    // then yields the even-position reordered samples in the real parts
    // and the odd-position ones in the imaginary parts.
    const std::size_t h = n_ / 2;
    auto fold = [&](std::size_t k, std::complex<double> vk,
                    std::complex<double> vkh) {
      const std::complex<double> odd = 0.5 * (vk - vkh) * std::conj(rt_[k]);
      return 0.5 * (vk + vkh) + std::complex<double>(-odd.imag(), odd.real());
    };
    z.resize(h);
    for (std::size_t k = 0; 2 * k <= h; ++k) {
      const std::size_t j = h - k;
      const std::complex<double> vk = spectrum(k);
      const std::complex<double> vj = spectrum(j);
      z[k] = fold(k, vk, std::conj(vj));
      if (k != 0 && j != k) z[j] = fold(j, vj, std::conj(vk));
    }
    half_fft_.execute(z, /*inverse=*/true);
  } else {
    z.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) z[k] = spectrum(k);
    fft_.execute(z, /*inverse=*/true);
  }

  // Undo the Makhoul reordering. Even n: the interleaved (re, im) pairs
  // of the half-length result are the reordered samples in order. Odd n:
  // they are the real parts of the full-length result.
  const double* vd = reinterpret_cast<const double*>(z.data());
  const std::size_t stride = n_ % 2 == 0 ? 1 : 2;
  const std::size_t half = (n_ + 1) / 2;
  for (std::size_t i = 0; i < half; ++i) out[2 * i] = vd[stride * i];
  for (std::size_t i = 0; i < n_ / 2; ++i)
    out[2 * i + 1] = vd[stride * (n_ - 1 - i)];
}

namespace {

// A chunked container needs at most two lengths (its full frames and the
// last one) and a run of single archives usually one, so eight slots
// hold every working set seen in practice; the cap bounds the table when
// many lengths pass through, dropping the oldest plan first.
constexpr std::size_t kMaxCachedPlans = 8;

struct PlanTable {
  Mutex mu;
  std::vector<std::shared_ptr<const DctPlan>> plans DPZ_GUARDED_BY(mu);
};

}  // namespace

std::shared_ptr<const DctPlan> dct_plan(std::size_t n) {
  static PlanTable table;
  const MutexLock lock(table.mu);
  for (const auto& plan : table.plans)
    if (plan->size() == n) return plan;
  auto plan = std::make_shared<const DctPlan>(n);
  if (table.plans.size() == kMaxCachedPlans)
    table.plans.erase(table.plans.begin());
  table.plans.push_back(plan);
  return plan;
}

std::vector<double> dct_naive_forward(std::span<const double> x) {
  const std::size_t n = x.size();
  DPZ_REQUIRE(n >= 1, "DCT length must be >= 1");
  std::vector<double> out(n);
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += x[i] * std::cos(std::numbers::pi *
                             (2.0 * static_cast<double>(i) + 1.0) *
                             static_cast<double>(k) /
                             (2.0 * static_cast<double>(n)));
    }
    out[k] = sum * (k == 0 ? norm0 : norm);
  }
  return out;
}

std::vector<double> dct_naive_inverse(std::span<const double> x) {
  const std::size_t n = x.size();
  DPZ_REQUIRE(n >= 1, "DCT length must be >= 1");
  std::vector<double> out(n);
  const double norm0 = std::sqrt(1.0 / static_cast<double>(n));
  const double norm = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    double sum = x[0] * norm0;
    for (std::size_t k = 1; k < n; ++k) {
      sum += x[k] * norm *
             std::cos(std::numbers::pi *
                      (2.0 * static_cast<double>(i) + 1.0) *
                      static_cast<double>(k) /
                      (2.0 * static_cast<double>(n)));
    }
    out[i] = sum;
  }
  return out;
}

}  // namespace dpz
