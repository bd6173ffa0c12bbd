// Archive layouts: every container format's bytes, in both directions.
//
// Every reader of an archive — the DPZ decoders and dpz_inspect, the
// chunked entry points, SharedBasisCodec, and verify_archive — locates
// its sections through the parser for its format here, so each format is
// validated in one place (docs/FORMAT.md §8, layers 2-6). A parse reads
// fixed fields and framing only: it returns sections as byte ranges of
// the input and computes no CRC besides the header seal. A section's
// CRC verdict is computed when a caller asks for it (crc_ok).
// Beside each parser sits the writer of the same header (put_header),
// and beside the section reads the framing writer (put_section).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/bytes.h"
#include "core/dpz.h"

namespace dpz::detail {

/// Upper bound on the element count an archive may claim, so a forged
/// header cannot trigger a runaway allocation before any payload
/// validation runs (2^40 elements = 4 TiB of f32). chunked_compress
/// holds its chunk size to the same cap, so it never writes a container
/// the parser rejects.
inline constexpr std::uint64_t kMaxElements = 1ULL << 40;

/// Section::expected_raw when the header does not determine the size.
inline constexpr std::uint64_t kAnyRawSize = ~std::uint64_t{0};

/// One checksummed unit of an archive, as a byte range of the input.
struct Section {
  /// What the stored checksum covers.
  enum class Crc : std::uint8_t {
    kNone,    ///< v1 units carry no checksum
    kHeader,  ///< the header seal: every byte before the stored CRC
    kFramed,  ///< a compressed section: le64(raw_size) || blob
    kBytes,   ///< the whole unit (chunked frames and parity shards)
  };
  const char* name = "";
  std::uint64_t offset = 0;    ///< first byte of the unit in the input
  std::uint64_t size = 0;      ///< wire size, framing included
  std::uint64_t raw_size = 0;  ///< claimed inflated size (kFramed only)
  std::uint64_t expected_raw = kAnyRawSize;  ///< size the header implies
  Crc crc = Crc::kNone;
  std::uint32_t stored_crc = 0;
};

/// What every parse records as it goes; after a throw it keeps what was
/// parsed before the failure, so verify_archive can report those rows.
struct Layout {
  const char* kind = "unknown";  ///< VerifyReport::kind vocabulary
  std::uint8_t version = 0;      ///< 0 until the version is known
  /// The header (once its seal field was read), then each compressed
  /// section in file order.
  std::vector<Section> sections;
  std::uint32_t seal_crc = 0;  ///< header CRC the parse computed (v2+)
};

/// Sections: header, then payload (stored-raw) or side, codes, outliers.
struct DpzLayout : Layout {
  DpzArchiveInfo info;
};

/// Sections: header only; the frame area is contiguous and exactly
/// filled, and every frame fits its group's parity shard.
struct ChunkedLayout : Layout {
  std::vector<std::size_t> shape;
  std::size_t total = 0;
  std::size_t chunk_values = 0;
  std::size_t frame_count = 0;
  std::vector<Section> frames;  ///< frame_count entries
  std::size_t parity_k = 0;  ///< both 0 when the container has no parity
  std::size_t parity_m = 0;
  std::vector<std::uint64_t> shard_sizes;    ///< per group
  std::vector<std::uint64_t> shard_offsets;  ///< per group, of shard 0
  std::vector<std::uint32_t> parity_crcs;    ///< group-major, m per group

  [[nodiscard]] std::size_t groups() const {
    return parity_m == 0 ? 0 : (frame_count + parity_k - 1) / parity_k;
  }
  [[nodiscard]] Section shard(std::size_t g, std::size_t j) const;
  /// Flat value range of frame `f`: chunk_values each, the last frame
  /// running to the end of the data.
  [[nodiscard]] std::pair<std::size_t, std::size_t> slot(
      std::size_t f) const;
};

/// The chunk tiling rule: one frame per chunk, a tail below the pipeline
/// minimum of 8 values merged into the last frame.
std::size_t expected_frame_count(std::size_t total, std::size_t chunk_values);
/// The problem when frames claiming `frame_values` values each do not
/// exactly tile `h.total`, else empty.
std::string frames_tile_problem(const ChunkedLayout& h,
                                std::span<const std::uint64_t> frame_values);

/// Sections: header, basis.
struct BasisLayout : Layout {
  bool wide_codes = false;
  double error_bound = 0.0;
  std::vector<std::size_t> shape;
  BlockLayout layout;
  std::size_t k = 0;
};

/// Sections: header, mean, codes, outliers. Their sizes follow from the
/// codec's geometry, which the snapshot does not carry.
struct SnapshotLayout : Layout {
  double score_scale = 1.0;
  std::uint64_t outlier_count = 0;
};

/// Container format named by the leading magic.
enum class Format { kUnknown, kDpz, kChunked, kBasis, kSnapshot };
Format format_of(std::span<const std::uint8_t> bytes);

/// The parsers: each throws FormatError (ChecksumError for a broken
/// header seal) at the first violation.
void parse_layout(std::span<const std::uint8_t> bytes, DpzLayout& out);
void parse_layout(std::span<const std::uint8_t> bytes, ChunkedLayout& out);
void parse_layout(std::span<const std::uint8_t> bytes, BasisLayout& out);
void parse_layout(std::span<const std::uint8_t> bytes, SnapshotLayout& out);

template <typename L>
L parse_layout(std::span<const std::uint8_t> bytes) {
  L layout;
  parse_layout(bytes, layout);
  return layout;
}

/// The writers: each appends to an empty `w` the sealed current-version
/// header its parser reads back. Chunked frame offsets follow from the
/// sizes; a nonzero parity_m writes DZC3.
void put_header(ByteWriter& w, const DpzArchiveInfo& info);
void put_header(ByteWriter& w, const ChunkedLayout& h);
void put_header(ByteWriter& w, const BasisLayout& h);
void put_header(ByteWriter& w, const SnapshotLayout& h);

/// Section framing (docs/FORMAT.md): put_section writes v2, deflating
/// `raw` at `level`; when its last `basis_bytes` are a put_basis blob
/// (the count put_basis returns), those deflate by byte plane
/// (zlib_compress_planes). get_section
/// inflates a section a parse located only after its v2 checksum
/// matched (else ChecksumError) and its raw size is the one the header
/// implies (else FormatError).
void put_section(ByteWriter& w, std::span<const std::uint8_t> raw,
                 int level, std::size_t basis_bytes = 0);
std::vector<std::uint8_t> get_section(std::span<const std::uint8_t> archive,
                                      const Section& section);

/// CRC32C over the section's wire image (raw-size field + blob), i.e.
/// exactly what a v2 section checksum covers.
std::uint32_t section_crc(std::uint64_t raw_size,
                          std::span<const std::uint8_t> blob);

/// The unit's bytes, framing included.
std::span<const std::uint8_t> bytes_of(std::span<const std::uint8_t> input,
                                       const Section& section);

/// CRC32C over what the section's checksum covers, counted as one
/// crc_checks (plus a crc_failures on mismatch) under a crc_check span.
std::uint32_t checked_crc(std::span<const std::uint8_t> input,
                          const Section& section);
/// True when the section has no checksum or its checksum matches.
bool crc_ok(std::span<const std::uint8_t> input, const Section& section);

/// Layer 6: the problem when the claimed raw size differs from the one
/// the header implies, else empty.
std::string raw_size_problem(const Section& section);

std::uint64_t element_count(std::span<const std::size_t> shape);

/// Layer 2, the one shape reader and writer (baseline formats too): a
/// rank byte in [1, max_rank], then u64 extents, nonzero, with product
/// <= 2^40.
std::vector<std::size_t> read_shape(ByteReader& r, const char* what,
                                    std::size_t max_rank = 4);
void put_shape(ByteWriter& w, std::span<const std::size_t> shape);
/// Layer 4: the block geometry (m, n, original_total); valid_blocks holds
/// it to what the compressor produces for `total` values and k components
/// (m < n keeps m*k and k*n far from overflow) and sets `padded`.
void read_blocks(ByteReader& r, BlockLayout& layout);
void put_blocks(ByteWriter& w, const BlockLayout& layout);
bool valid_blocks(BlockLayout& layout, std::uint64_t total, std::size_t k);

}  // namespace dpz::detail
