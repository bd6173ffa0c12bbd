// Complex FFT substrate for Stage 1's DCT.
//
// DPZ carries its own FFT instead of depending on FFTW. Every transform
// runs through an FftPlan built once per length. A 2·3·5-smooth length
// (every power of two, and the block lengths the divisor-pair layout
// gives the CESM fields, e.g. 720 = 2^4·3^2·5) runs as a mixed-radix
// Cooley-Tukey transform: a digit-reversal permutation, then one
// radix-2, radix-3 or radix-5 butterfly stage per factor. Any other
// length runs Bluestein's chirp-z algorithm, whose convolution is a
// power-of-two transform.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
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
  /// An in-place decimation-in-time transform of one 2·3·5-smooth
  /// length: the plan length itself, or Bluestein's convolution length.
  struct MixedRadix {
    std::size_t n = 0;
    /// Stage radices, 2s first, then 3s, then 5s: a power of two runs
    /// exactly the classic radix-2 stages.
    std::vector<std::uint8_t> radices;
    /// The digit-reversal permutation, fixed points left out: its
    /// 2-cycles as swaps (all of them for a power of two), then each
    /// longer cycle stored as its length L and positions c_0..c_{L-1},
    /// where a[c_j] takes a[c_{j+1}] and the last takes the first.
    std::vector<std::pair<std::size_t, std::size_t>> swaps;
    std::vector<std::size_t> cycles;
    /// Forward twiddles, stage after stage: for a radix-r stage of
    /// length len, exp(-2*pi*i*q*k/len) for q in [1, r), k in [0, len/r).
    std::vector<std::complex<double>> twiddles;

    void run(std::complex<double>* a, bool inverse) const;
  };

  void execute_bluestein(std::vector<std::complex<double>>& data,
                         bool inverse) const;

  std::size_t n_;
  MixedRadix stages_;
  // Bluestein chirp data; empty when n_ is 2·3·5-smooth.
  std::vector<std::complex<double>> chirp_;      // w_k = exp(-i*pi*k^2/n)
  std::vector<std::complex<double>> chirp_fft_;  // FFT of padded conj chirp
};

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

}  // namespace dpz
