// Thin RAII wrapper around zlib — DPZ's lossless add-on stage.
//
// The paper compresses the quantization indices and the out-of-range
// values with zlib (SS IV-C), crediting it with a further ~1.25x on
// average (Table III's bottom band). These helpers operate on whole
// buffers; streaming is unnecessary at the archive sizes involved.
//
// The byte-shuffled f32 basis (core/archive_detail.h put_basis) is the
// one stream whose bytes zlib's default LZ search mostly wastes time on:
// its three mantissa planes hold almost no repeats. zlib_compress_planes
// writes it as one standard zlib stream with a strategy per plane, so
// every inflater (zlib_decompress included) reads it unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dpz {

/// Deflates `data` at the given zlib level (1 fastest .. 9 densest).
/// Throws Error on internal zlib failure.
std::vector<std::uint8_t> zlib_compress(std::span<const std::uint8_t> data,
                                        int level = 6);

/// Deflates `data` = prefix[prefix_bytes] + a byte-shuffled f32 blob (four
/// equal byte planes; the last holds the sign and exponent bytes) into one
/// zlib stream: the prefix at `level`, the three mantissa planes
/// Huffman-only, and the exponent plane as the smaller of run-length
/// matching and default LZ at min(level, 4), both continued from the same
/// stream state (a tie keeps run-length), so the bytes depend only on the
/// input. An exponent plane under 4096 bytes goes straight to LZ: there
/// the second stream state costs more than the choice saves. With no
/// plane bytes it returns zlib_compress(data, level). The blob's size must
/// be a multiple of 4. Throws Error on internal zlib failure.
std::vector<std::uint8_t> zlib_compress_planes(
    std::span<const std::uint8_t> data, std::size_t prefix_bytes,
    int level = 6);

/// Inflates a buffer produced by either compressor (or any conforming
/// zlib stream). `expected_size` must be the exact original length
/// (archives store it); a mismatch throws FormatError.
std::vector<std::uint8_t> zlib_decompress(
    std::span<const std::uint8_t> data, std::size_t expected_size);

}  // namespace dpz
