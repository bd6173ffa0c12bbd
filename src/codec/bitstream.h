// MSB-first bit-level I/O.
//
// Used by the canonical Huffman coder (SZ-like baseline entropy stage) and
// by the ZFP-like baseline's embedded bit-plane coder, where variable-bit
// group tests and plane bits interleave freely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace dpz {

/// Writes bits MSB-first into a growing byte buffer.
class BitWriter {
 public:
  /// Appends the low `count` bits of `value` (MSB of the field first).
  void put_bits(std::uint64_t value, unsigned count) {
    DPZ_REQUIRE(count <= 64, "bit count must be <= 64");
    for (unsigned i = count; i-- > 0;)
      put_bit(static_cast<unsigned>((value >> i) & 1U));
  }

  void put_bit(unsigned bit) {
    if (bit_pos_ == 0) bytes_.push_back(0);
    if (bit != 0)
      bytes_.back() |= static_cast<std::uint8_t>(0x80U >> bit_pos_);
    bit_pos_ = (bit_pos_ + 1) & 7U;
  }

  /// Finishes the stream (zero-pads the final byte) and returns the bytes.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    bit_pos_ = 0;
    return std::move(bytes_);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned bit_pos_ = 0;  // next free bit within the last byte
};

/// Reads bits MSB-first; throws FormatError when reading past the end.
///
/// Decoders feed this reader counts that may be derived from archive
/// bytes (e.g. the ZFP-like per-block precision), so every failure —
/// exhaustion *and* an out-of-range count — is a recoverable FormatError,
/// never a DPZ_REQUIRE contract abort and never a shift past the
/// accumulator width.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  unsigned get_bit() {
    const std::size_t byte = pos_ >> 3;
    if (byte >= data_.size()) throw FormatError("bit stream exhausted");
    const unsigned bit =
        (data_[byte] >> (7U - (pos_ & 7U))) & 1U;
    ++pos_;
    return bit;
  }

  std::uint64_t get_bits(unsigned count) {
    if (count > 64)
      throw FormatError("bit field width " + std::to_string(count) +
                        " exceeds 64 bits");
    if (count > bits_remaining()) throw FormatError("bit stream exhausted");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1) | get_bit();
    return v;
  }

  [[nodiscard]] std::size_t bits_remaining() const {
    return data_.size() * 8 - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dpz
