#include "dsp/fft.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "simd/simd.h"
#include "util/error.h"

namespace dpz {

namespace {

// std::complex guarantees array-oriented access ([complex.numbers.general]:
// reinterpret_cast<double(&)[2]>(z) is valid), so an interleaved
// complex<double> buffer can be handed to the double-pair simd kernels
// without a copy. These two helpers are the only sanctioned casts in dsp
// (tools/analyze "reinterpret-cast" allowlist).
double* as_doubles(std::complex<double>* p) {
  return reinterpret_cast<double*>(p);
}
const double* as_doubles(const std::complex<double>* p) {
  return reinterpret_cast<const double*>(p);
}

// The stage radices of n, 2s first, then 3s, then 5s; empty when n has
// a prime factor above 5.
std::vector<std::uint8_t> smooth_radices(std::size_t n) {
  std::vector<std::uint8_t> radices;
  for (const std::uint8_t r : {2, 3, 5})
    while (n % r == 0) {
      radices.push_back(r);
      n /= r;
    }
  if (n != 1) radices.clear();
  return radices;
}

}  // namespace

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    DPZ_REQUIRE(p <= (SIZE_MAX >> 1), "next_power_of_two overflow");
    p <<= 1;
  }
  return p;
}

void FftPlan::MixedRadix::run(std::complex<double>* a, bool inverse) const {
  for (const auto& [i, j] : swaps) std::swap(a[i], a[j]);
  for (std::size_t i = 0; i < cycles.size();) {
    const std::size_t* c = cycles.data() + i + 1;
    const std::size_t len = cycles[i];
    const std::complex<double> first = a[c[0]];
    for (std::size_t j = 0; j + 1 < len; ++j) a[c[j]] = a[c[j + 1]];
    a[c[len - 1]] = first;
    i += len + 1;
  }

  const simd::KernelTable& ops = simd::kernels();
  double* ad = as_doubles(a);
  const double* w = as_doubles(twiddles.data());
  std::size_t len = 1;
  for (const std::uint8_t r : radices) {
    len *= r;
    if (r == 2) {
      ops.radix2_stage(ad, n, len, w, inverse);
    } else if (r == 3) {
      ops.radix3_stage(ad, n, len, w, inverse);
    } else {
      ops.radix5_stage(ad, n, len, w, inverse);
    }
    w += 2 * (len - len / r);  // (r - 1) twiddle rows of len / r
  }

  if (inverse) ops.scale(1.0 / static_cast<double>(n), ad, 2 * n);
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  DPZ_REQUIRE(n >= 1, "FFT length must be >= 1");
  if (n_ == 1) return;

  // Other lengths run Bluestein: x_hat[k] = w_k * sum_n x[n] w_n *
  // conj(w_{k-n}) where
  // w_k = exp(-i*pi*k^2/n); the sum is a linear convolution embedded in a
  // power-of-two circular convolution of length >= 2n-1.
  std::vector<std::uint8_t> radices = smooth_radices(n_);
  const bool bluestein = radices.empty();
  stages_.n = bluestein ? next_power_of_two(2 * n_ - 1) : n_;
  if (bluestein) radices = smooth_radices(stages_.n);

  // Decimation in time: position p = q_1 + r_1*(q_2 + r_2*(q_3 + ...))
  // of the permuted input holds x[src(p)] with the digits read in
  // reverse, src = q_s + r_s*(q_{s-1} + r_{s-1}*(...)); for radix 2 alone
  // that is the bit reversal. Its cycles p -> src(p) -> ... run in
  // place; rotating a longer cycle moves each element once, where a
  // chain of swaps would serialize on the element it carries.
  const auto src = [&radices](std::size_t p) {
    std::size_t s = 0;
    for (const std::uint8_t r : radices) {
      s = s * r + p % r;
      p /= r;
    }
    return s;
  };
  std::vector<bool> placed(stages_.n, false);
  for (std::size_t start = 0; start < stages_.n; ++start) {
    const std::size_t next = src(start);
    if (placed[start] || next == start) continue;
    if (src(next) == start) {
      stages_.swaps.emplace_back(start, next);
      placed[next] = true;
      continue;
    }
    const std::size_t head = stages_.cycles.size();
    stages_.cycles.push_back(0);
    std::size_t p = start;
    do {
      stages_.cycles.push_back(p);
      placed[p] = true;
      p = src(p);
    } while (p != start);
    stages_.cycles[head] = stages_.cycles.size() - head - 1;
  }
  stages_.twiddles.reserve(stages_.n - 1);  // sum of len - len/r

  std::size_t len = 1;
  for (const std::uint8_t r : radices) {
    len *= r;
    const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t q = 1; q < r; ++q)
      for (std::size_t k = 0; k < len / r; ++k) {
        const double angle = step * static_cast<double>(q * k);
        stages_.twiddles.emplace_back(std::cos(angle), std::sin(angle));
      }
  }
  stages_.radices = std::move(radices);
  if (!bluestein) return;

  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // Reduce k^2 mod 2n before multiplying to keep the angle accurate for
    // large lengths (k*k overflows the double mantissa around 2^26).
    const std::size_t k2 = (k * k) % (2 * n_);
    const double angle =
        -std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n_);
    chirp_[k] = {std::cos(angle), std::sin(angle)};
  }

  std::vector<std::complex<double>> b(stages_.n, {0.0, 0.0});
  b[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    b[k] = std::conj(chirp_[k]);
    b[stages_.n - k] = std::conj(chirp_[k]);
  }
  stages_.run(b.data(), /*inverse=*/false);
  chirp_fft_ = std::move(b);
}

void FftPlan::execute(std::vector<std::complex<double>>& data,
                      bool inverse) const {
  DPZ_REQUIRE(data.size() == n_, "FFT buffer length must match plan size");
  if (n_ == 1) return;
  if (chirp_.empty()) {
    stages_.run(data.data(), inverse);
  } else {
    execute_bluestein(data, inverse);
  }
}

void FftPlan::execute_bluestein(std::vector<std::complex<double>>& data,
                                bool inverse) const {
  // Inverse DFT via conjugation: IDFT(x) = conj(DFT(conj(x))) / n.
  if (inverse)
    for (auto& v : data) v = std::conj(v);

  const simd::KernelTable& ops = simd::kernels();
  // Per-thread scratch: a block matrix runs thousands of same-length
  // transforms, so reuse the convolution buffer instead of allocating
  // and zero-filling the convolution length per call. Only the zero
  // padding beyond n_ needs refreshing — the cmul below overwrites [0, n_).
  thread_local std::vector<std::complex<double>> scratch;
  scratch.resize(stages_.n);
  std::vector<std::complex<double>>& a = scratch;
  std::fill(a.begin() + static_cast<std::ptrdiff_t>(n_), a.end(),
            std::complex<double>{0.0, 0.0});
  ops.cmul(as_doubles(data.data()), as_doubles(chirp_.data()),
           as_doubles(a.data()), n_);

  stages_.run(a.data(), /*inverse=*/false);
  ops.cmul(as_doubles(a.data()), as_doubles(chirp_fft_.data()),
           as_doubles(a.data()), stages_.n);
  stages_.run(a.data(), /*inverse=*/true);

  ops.cmul(as_doubles(a.data()), as_doubles(chirp_.data()),
           as_doubles(data.data()), n_);

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (auto& v : data) v = std::conj(v) * scale;
  }
}

}  // namespace dpz
