// GF(2^8) arithmetic for the Reed-Solomon frame-parity codec.
//
// The field is GF(2^8) with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for
// storage erasure codes. Addition is XOR; multiplication goes through
// constexpr log/exp tables built at compile time, so the codec carries
// no init-order or runtime-table state and every operation is a pair of
// loads. Everything here is total except division by zero, which the
// codec never performs (pivots are checked before inversion).
#pragma once

#include <array>
#include <cstdint>

namespace dpz::ecc {

namespace detail {

struct Gf256Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled so mul never reduces
};

constexpr Gf256Tables make_gf256_tables() {
  Gf256Tables t{};
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1U;
    if ((x & 0x100U) != 0) x ^= 0x11DU;
  }
  for (std::uint32_t i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  return t;
}

inline constexpr Gf256Tables kGf256 = make_gf256_tables();

}  // namespace detail

[[nodiscard]] constexpr std::uint8_t gf_add(std::uint8_t a,
                                            std::uint8_t b) {
  return a ^ b;
}

[[nodiscard]] constexpr std::uint8_t gf_mul(std::uint8_t a,
                                            std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::kGf256.exp[static_cast<std::size_t>(detail::kGf256.log[a]) +
                            detail::kGf256.log[b]];
}

/// Multiplicative inverse; the caller guarantees a != 0.
[[nodiscard]] constexpr std::uint8_t gf_inv(std::uint8_t a) {
  return detail::kGf256.exp[255 - detail::kGf256.log[a]];
}

/// a^n for n >= 0 (0^0 == 1 by convention).
[[nodiscard]] constexpr std::uint8_t gf_pow(std::uint8_t a,
                                            std::size_t n) {
  std::uint8_t out = 1;
  for (std::size_t i = 0; i < n; ++i) out = gf_mul(out, a);
  return out;
}

}  // namespace dpz::ecc
