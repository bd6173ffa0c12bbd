// Internal archive building blocks shared between the compressor
// (dpz.cpp) and the analysis evaluator (analysis.cpp). Not part of the
// public API; layouts here may change between archive versions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/bytes.h"
#include "linalg/matrix.h"

namespace dpz::detail {

/// Archive format versions. Version 2 adds CRC32C integrity: a header
/// checksum sealing every fixed field and a per-section checksum that is
/// verified *before* the blob reaches zlib. Writers always emit
/// kFormatVersion; readers accept both (docs/FORMAT.md, "Format v2").
inline constexpr std::uint8_t kFormatVersionLegacy = 1;
inline constexpr std::uint8_t kFormatVersion = 2;
/// Chunked-container revision 3 ("DZC3"): v2 plus an optional
/// Reed-Solomon parity section after the frame area. Writers emit it
/// only when parity is requested, so parity-less containers stay
/// byte-identical v2 (docs/FORMAT.md, "DZC3").
inline constexpr std::uint8_t kChunkedFormatVersion3 = 3;

/// Container magics (little-endian u32 of the 4-byte tag). The v1 tags
/// carry no version byte, so v2 containers announce themselves with new
/// magics and readers accept either generation.
inline constexpr std::uint32_t kDpzMagic = 0x315A5044;         // "DPZ1"
inline constexpr std::uint32_t kChunkedMagicV1 = 0x4B435A44;   // "DZCK"
inline constexpr std::uint32_t kChunkedMagicV2 = 0x32435A44;   // "DZC2"
inline constexpr std::uint32_t kChunkedMagicV3 = 0x33435A44;   // "DZC3"
inline constexpr std::uint32_t kBasisMagicV1 = 0x42505A44;     // "DZPB"
inline constexpr std::uint32_t kBasisMagicV2 = 0x32425A44;     // "DZB2"
inline constexpr std::uint32_t kSnapshotMagicV1 = 0x53505A44;  // "DZPS"
inline constexpr std::uint32_t kSnapshotMagicV2 = 0x32535A44;  // "DZS2"

/// DPZ archive header flag bits.
inline constexpr std::uint8_t kDpzFlagWideCodes = 0x01;
inline constexpr std::uint8_t kDpzFlagStandardized = 0x02;
inline constexpr std::uint8_t kDpzFlagStoredRaw = 0x04;
inline constexpr std::uint8_t kDpzFlagDouble = 0x08;

/// Score-normalization calibration: every k-PCA score is divided by ONE
/// global scale — kScoreSigmaScale times the standard deviation of the
/// first (largest) component — before quantization, mirroring the paper's
/// single absolute error bound "designed only for approximation on k-PCA"
/// (SS IV-C). With the DPZ-l parameters (P = 1e-3, B = 255) the covered
/// band is ~2 sigma of the dominant component, so its near-normal stream
/// (the paper's normality argument) leaves only a small tail as verbatim
/// outliers, while later (smaller) components concentrate in the central
/// bins. That concentration is what makes the zlib factor RISE with TVE
/// (Table III) and the quantization loss of DPZ-l blow up at tight TVE
/// (Table IV).
inline constexpr double kScoreSigmaScale = 8.0;

/// Global normalization scale (see kScoreSigmaScale), computed from the
/// first component's scores. Zero-variance streams fall back to max-abs,
/// then to 1.
double component_scale(std::span<const double> scores);

/// Side data: everything reconstruction needs besides the quantized scores.
struct SideData {
  std::vector<double> mean;   ///< M
  std::vector<double> scale;  ///< M (meaningful when standardized)
  double score_scale = 1.0;   ///< global score normalization (see above)
  Matrix basis;               ///< M x k, serialized as byte-shuffled f32
};

std::vector<std::uint8_t> serialize_side(const SideData& side,
                                         bool standardized);
SideData deserialize_side(std::span<const std::uint8_t> bytes, std::size_t m,
                          std::size_t k, bool standardized);

/// Section framing.
///   v1: raw_size:u64, blob:u64-length-prefixed zlib stream
///   v2: raw_size:u64, crc:u32, blob  — crc is CRC32C over the 8
///       little-endian raw-size bytes followed by the compressed blob.
/// put_section always writes v2. get_section reads a section a layout
/// parse located (core/layout.h): for v2 it verifies the checksum
/// *before* the blob is handed to zlib (ChecksumError on mismatch, with
/// an error breadcrumb naming the section and its offset), then checks
/// the raw size the header implies, so corrupted payloads never reach
/// the inflater or size an allocation.
struct Section;
void put_section(ByteWriter& w, std::span<const std::uint8_t> raw,
                 int level);
std::vector<std::uint8_t> get_section(std::span<const std::uint8_t> archive,
                                      const Section& section);

/// CRC32C over the section's wire image (raw-size field + blob), i.e.
/// exactly what a v2 section checksum covers.
std::uint32_t section_crc(std::uint64_t raw_size,
                          std::span<const std::uint8_t> blob);

/// Header seal: appends a CRC32C over every byte written so far. The
/// layout parsers check it (core/layout.h).
void put_header_crc(ByteWriter& w);

}  // namespace dpz::detail
