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

}  // namespace

namespace {

// Builds the bit-reversal permutation for length n (power of two).
std::vector<std::size_t> make_bitrev(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    rev[i] = r;
  }
  return rev;
}

// Forward twiddles for all butterfly stages: exp(-2*pi*i*k/len) packed
// stage after stage (len = 2, 4, ..., n), total n-1 entries.
std::vector<std::complex<double>> make_twiddles(std::size_t n) {
  std::vector<std::complex<double>> tw;
  tw.reserve(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k)
      tw.emplace_back(std::cos(step * static_cast<double>(k)),
                      std::sin(step * static_cast<double>(k)));
  }
  return tw;
}

// Radix-2 kernel shared by the plan paths. `rev` and `tw` must match n.
void fft_pow2_kernel(std::complex<double>* a, std::size_t n,
                     const std::vector<std::size_t>& rev,
                     const std::vector<std::complex<double>>& tw,
                     bool inverse) {
  for (std::size_t i = 0; i < n; ++i)
    if (i < rev[i]) std::swap(a[i], a[rev[i]]);

  const simd::KernelTable& ops = simd::kernels();
  double* ad = as_doubles(a);
  std::size_t tw_base = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    ops.radix2_stage(ad, n, len, as_doubles(tw.data() + tw_base), inverse);
    tw_base += len / 2;
  }

  if (inverse) ops.scale(1.0 / static_cast<double>(n), ad, 2 * n);
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

FftPlan::FftPlan(std::size_t n) : n_(n), is_pow2_(is_power_of_two(n)) {
  DPZ_REQUIRE(n >= 1, "FFT length must be >= 1");
  if (n_ == 1) return;

  if (is_pow2_) {
    bitrev_ = make_bitrev(n_);
    twiddles_ = make_twiddles(n_);
    return;
  }

  // Bluestein: x_hat[k] = w_k * sum_n x[n] w_n * conj(w_{k-n}) where
  // w_k = exp(-i*pi*k^2/n); the sum is a linear convolution embedded in a
  // power-of-two circular convolution of length >= 2n-1.
  conv_n_ = next_power_of_two(2 * n_ - 1);
  bitrev_ = make_bitrev(conv_n_);
  twiddles_ = make_twiddles(conv_n_);

  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // Reduce k^2 mod 2n before multiplying to keep the angle accurate for
    // large lengths (k*k overflows the double mantissa around 2^26).
    const std::size_t k2 = (k * k) % (2 * n_);
    const double angle =
        -std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n_);
    chirp_[k] = {std::cos(angle), std::sin(angle)};
  }

  std::vector<std::complex<double>> b(conv_n_, {0.0, 0.0});
  b[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    b[k] = std::conj(chirp_[k]);
    b[conv_n_ - k] = std::conj(chirp_[k]);
  }
  fft_pow2_kernel(b.data(), conv_n_, bitrev_, twiddles_, /*inverse=*/false);
  chirp_fft_ = std::move(b);
}

void FftPlan::execute(std::vector<std::complex<double>>& data,
                      bool inverse) const {
  DPZ_REQUIRE(data.size() == n_, "FFT buffer length must match plan size");
  if (n_ == 1) return;
  if (is_pow2_) {
    execute_pow2(data, inverse);
  } else {
    execute_bluestein(data, inverse);
  }
}

void FftPlan::execute_pow2(std::vector<std::complex<double>>& data,
                           bool inverse) const {
  fft_pow2_kernel(data.data(), n_, bitrev_, twiddles_, inverse);
}

void FftPlan::execute_bluestein(std::vector<std::complex<double>>& data,
                                bool inverse) const {
  // Inverse DFT via conjugation: IDFT(x) = conj(DFT(conj(x))) / n.
  if (inverse)
    for (auto& v : data) v = std::conj(v);

  const simd::KernelTable& ops = simd::kernels();
  // Per-thread scratch: a block matrix runs thousands of same-length
  // transforms, so reuse the convolution buffer instead of allocating
  // and zero-filling conv_n_ complexes per call. Only the zero padding
  // beyond n_ needs refreshing — the cmul below overwrites [0, n_).
  thread_local std::vector<std::complex<double>> scratch;
  scratch.resize(conv_n_);
  std::vector<std::complex<double>>& a = scratch;
  std::fill(a.begin() + static_cast<std::ptrdiff_t>(n_), a.end(),
            std::complex<double>{0.0, 0.0});
  ops.cmul(as_doubles(data.data()), as_doubles(chirp_.data()),
           as_doubles(a.data()), n_);

  fft_pow2_kernel(a.data(), conv_n_, bitrev_, twiddles_, /*inverse=*/false);
  ops.cmul(as_doubles(a.data()), as_doubles(chirp_fft_.data()),
           as_doubles(a.data()), conv_n_);
  fft_pow2_kernel(a.data(), conv_n_, bitrev_, twiddles_, /*inverse=*/true);

  ops.cmul(as_doubles(a.data()), as_doubles(chirp_.data()),
           as_doubles(data.data()), n_);

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (auto& v : data) v = std::conj(v) * scale;
  }
}

}  // namespace dpz
