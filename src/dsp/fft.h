// Complex FFT substrate for Stage 1's DCT.
//
// DPZ carries its own FFT instead of depending on FFTW. Every transform
// runs through an FftPlan built once per length: an iterative radix-2
// Cooley-Tukey kernel for power-of-two lengths and Bluestein's chirp-z
// algorithm for arbitrary lengths (needed because block sizes produced by
// the divisor-pair decomposition are not always powers of two, e.g.
// CESM-ATM blocks of 3600 points).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace dpz {

/// Precomputed plan for repeated transforms of one length.
///
/// Plans are immutable after construction and safe to share across threads
/// (execute() only reads plan state and writes the caller's buffer).
class FftPlan {
 public:
  /// Builds a plan for length `n` (n >= 1).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place DFT of `data` (length must equal size()).
  /// `inverse` selects the inverse transform, scaled by 1/n so that
  /// forward followed by inverse is the identity.
  void execute(std::vector<std::complex<double>>& data, bool inverse) const;

 private:
  void execute_pow2(std::vector<std::complex<double>>& data,
                    bool inverse) const;
  void execute_bluestein(std::vector<std::complex<double>>& data,
                         bool inverse) const;

  std::size_t n_;
  bool is_pow2_;
  // Radix-2 machinery (twiddles for the plan length or the Bluestein
  // convolution length).
  std::size_t conv_n_ = 0;  // power-of-two convolution length (Bluestein)
  std::vector<std::size_t> bitrev_;             // bit-reversal permutation
  std::vector<std::complex<double>> twiddles_;  // forward twiddle table
  // Bluestein chirp data.
  std::vector<std::complex<double>> chirp_;      // w_k = exp(-i*pi*k^2/n)
  std::vector<std::complex<double>> chirp_fft_;  // FFT of padded conj chirp
};

/// True when n is a power of two.
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

}  // namespace dpz
