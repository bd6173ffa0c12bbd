#include "core/layout.h"

#include <array>
#include <cmath>
#include <string>

#include "codec/bytes.h"
#include "codec/zlib_codec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/error.h"

namespace dpz::detail {

namespace {

// Format versions: writers emit v2 (v3 for a chunked container with
// parity, "DZC3"); readers also accept v1, which has no checksums.
constexpr std::uint8_t kFormatVersionLegacy = 1;
constexpr std::uint8_t kFormatVersion = 2;
constexpr std::uint8_t kChunkedFormatVersion3 = 3;

// Container magics (little-endian u32 of the 4-byte tag); the v1 tags
// carry no version byte.
constexpr std::uint32_t kDpzMagic = 0x315A5044;         // "DPZ1"
constexpr std::uint32_t kChunkedMagicV1 = 0x4B435A44;   // "DZCK"
constexpr std::uint32_t kChunkedMagicV2 = 0x32435A44;   // "DZC2"
constexpr std::uint32_t kChunkedMagicV3 = 0x33435A44;   // "DZC3"
constexpr std::uint32_t kBasisMagicV1 = 0x42505A44;     // "DZPB"
constexpr std::uint32_t kBasisMagicV2 = 0x32425A44;     // "DZB2"
constexpr std::uint32_t kSnapshotMagicV1 = 0x53505A44;  // "DZPS"
constexpr std::uint32_t kSnapshotMagicV2 = 0x32535A44;  // "DZS2"

// DPZ archive header flag bits; bits 4-7 are reserved and must be zero.
constexpr std::uint8_t kDpzFlagWideCodes = 0x01;
constexpr std::uint8_t kDpzFlagStandardized = 0x02;
constexpr std::uint8_t kDpzFlagStoredRaw = 0x04;
constexpr std::uint8_t kDpzFlagDouble = 0x08;
constexpr std::uint8_t kDpzFlagsKnown = 0x0F;

// A compressed section's zlib stream, after raw_size u64, crc u32 (v2)
// and blob_size u64.
std::span<const std::uint8_t> blob_of(std::span<const std::uint8_t> input,
                                      const Section& section) {
  const std::uint64_t framing =
      section.crc == Section::Crc::kFramed ? 20 : 16;
  return input.subspan(static_cast<std::size_t>(section.offset + framing),
                       static_cast<std::size_t>(section.size - framing));
}

// The header seal: a CRC32C over the whole header `w` holds.
void put_header_crc(ByteWriter& w) { w.put_u32(crc32c(w.bytes())); }

// Records the header row and, for v2+ headers, checks the seal: the
// stored CRC32C of every byte before it. The seal is checked before any
// header field drives work, so a flipped bit in a fixed field is
// reported as corruption rather than as whichever invariant it breaks.
void check_header_crc(ByteReader& r, std::span<const std::uint8_t> bytes,
                      Layout& out, const char* what) {
  Section header;
  header.name = "header";
  if (out.version < kFormatVersion) {
    header.size = r.position();
    out.sections.push_back(header);
    return;
  }
  const std::size_t header_end = r.position();
  header.crc = Section::Crc::kHeader;
  header.stored_crc = r.get_u32();
  header.size = r.position();
  out.seal_crc = checked_crc(bytes, header);
  out.sections.push_back(header);
  if (out.seal_crc != header.stored_crc) {
    obs::LogContext ctx;
    ctx.offset = header_end;
    ctx.section = "header";
    obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                   ctx, what);
    throw ChecksumError(std::string(what) + ": header checksum mismatch");
  }
}

// Layer 5: one compressed section's framing at the cursor, located
// without touching its blob. deflate expands at most ~1032:1, so a
// raw_size beyond that bound is a forged field that must never size an
// allocation.
void read_section(ByteReader& r, Layout& out, const char* name,
                  std::uint64_t expected_raw) {
  Section s;
  s.name = name;
  s.offset = r.position();
  s.raw_size = r.get_u64();
  if (out.version >= kFormatVersion) {
    s.crc = Section::Crc::kFramed;
    s.stored_crc = r.get_u32();
  }
  const std::uint64_t blob = r.get_u64();
  r.skip(static_cast<std::size_t>(blob));
  if (s.raw_size > blob * 1100 + 4096)
    throw FormatError(std::string(name) +
                      " section: raw size implausible for its payload");
  s.size = r.position() - s.offset;
  s.expected_raw = expected_raw;
  out.sections.push_back(s);
}

// The version byte a versioned magic carries (v1 magics carry none);
// anything but `expected` is from the future.
std::uint8_t read_version(ByteReader& r, bool versioned,
                          std::uint8_t expected, const char* what) {
  if (!versioned) return kFormatVersionLegacy;
  if (r.get_u8() != expected)
    throw FormatError(std::string("unsupported ") + what + " version");
  return expected;
}

void require_consumed(const ByteReader& r) {
  if (r.remaining() != 0)
    throw FormatError(std::to_string(r.remaining()) +
                      " trailing bytes after the last section");
}

}  // namespace

// Computed arithmetically, so a forged header cannot drive an
// allocation before the parser's check runs.
std::size_t expected_frame_count(std::size_t total,
                                 std::size_t chunk_values) {
  std::size_t n = (total + chunk_values - 1) / chunk_values;
  if (n > 1 && total - (n - 1) * chunk_values < 8) --n;
  return n;
}

std::string frames_tile_problem(
    const ChunkedLayout& h, std::span<const std::uint64_t> frame_values) {
  std::uint64_t claimed = 0;  // never wraps: each claim fits what is left
  for (const std::uint64_t values : frame_values) {
    if (values > h.total - claimed)
      return "chunked container: frames exceed the shape";
    claimed += values;
  }
  if (claimed != h.total)
    return "chunked container: frames do not cover the shape";
  return {};
}

std::vector<std::size_t> read_shape(ByteReader& r, const char* what,
                                    std::size_t max_rank) {
  const std::uint8_t rank = r.get_u8();
  if (rank == 0 || rank > max_rank)
    throw FormatError(std::string(what) + ": bad rank");
  std::vector<std::size_t> shape(rank);
  std::uint64_t total = 1;
  for (std::size_t& d : shape) {
    const std::uint64_t e = r.get_u64();
    if (e == 0 || e > kMaxElements)
      throw FormatError(std::string(what) + ": implausible extent");
    total *= e;
    if (total > kMaxElements)
      throw FormatError(std::string(what) + ": implausible total size");
    d = static_cast<std::size_t>(e);
  }
  return shape;
}

void put_shape(ByteWriter& w, std::span<const std::size_t> shape) {
  w.put_u8(static_cast<std::uint8_t>(shape.size()));
  for (const std::size_t d : shape) w.put_u64(d);
}

void read_blocks(ByteReader& r, BlockLayout& layout) {
  layout.m = static_cast<std::size_t>(r.get_u64());
  layout.n = static_cast<std::size_t>(r.get_u64());
  layout.original_total = static_cast<std::size_t>(r.get_u64());
}

void put_blocks(ByteWriter& w, const BlockLayout& layout) {
  w.put_u64(layout.m);
  w.put_u64(layout.n);
  w.put_u64(layout.original_total);
}

bool valid_blocks(BlockLayout& layout, std::uint64_t total, std::size_t k) {
  const bool ok = total == layout.original_total && layout.m != 0 &&
                  layout.n != 0 && layout.m < layout.n && k != 0 &&
                  k <= layout.m && layout.m <= kMaxElements / layout.n &&
                  layout.padded_total() >= layout.original_total &&
                  layout.padded_total() <= 4 * layout.original_total + 16;
  layout.padded = ok && layout.padded_total() != layout.original_total;
  return ok;
}

Format format_of(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return Format::kUnknown;
  ByteReader r(bytes);
  switch (r.get_u32()) {
    case kDpzMagic:
      return Format::kDpz;
    case kChunkedMagicV1:
    case kChunkedMagicV2:
    case kChunkedMagicV3:
      return Format::kChunked;
    case kBasisMagicV1:
    case kBasisMagicV2:
      return Format::kBasis;
    case kSnapshotMagicV1:
    case kSnapshotMagicV2:
      return Format::kSnapshot;
    default:
      return Format::kUnknown;
  }
}

void parse_layout(std::span<const std::uint8_t> bytes, DpzLayout& out) {
  ByteReader r(bytes);
  if (r.get_u32() != kDpzMagic) throw FormatError("not a DPZ archive");
  const std::uint8_t version = r.get_u8();
  if (version != kFormatVersionLegacy && version != kFormatVersion)
    throw FormatError("unsupported DPZ archive version");
  out.version = version;
  DpzArchiveInfo& info = out.info;
  info.version = version;
  info.archive_bytes = bytes.size();
  const std::uint8_t flags = r.get_u8();
  info.stored_raw = (flags & kDpzFlagStoredRaw) != 0;
  info.wide_codes = (flags & kDpzFlagWideCodes) != 0;
  info.standardized = (flags & kDpzFlagStandardized) != 0;
  info.double_precision = (flags & kDpzFlagDouble) != 0;
  out.kind = info.stored_raw ? "stored" : "dpz";
  info.error_bound = r.get_f64();
  info.shape = read_shape(r, "DPZ archive");
  const std::uint64_t total = element_count(info.shape);
  const std::uint64_t elem = info.double_precision ? 8 : 4;
  if (!info.stored_raw) {
    read_blocks(r, info.layout);
    info.k = r.get_u32();
    info.outlier_count = r.get_u64();
  }
  check_header_crc(r, bytes, out,
                   info.stored_raw ? "stored DPZ archive" : "DPZ archive");
  // Resealed forgeries still reach these checks: the seal authenticates
  // bytes, not semantics.
  if ((flags & ~kDpzFlagsKnown) != 0)
    throw FormatError("DPZ archive: reserved header flag bits set");
  if (info.stored_raw) {
    read_section(r, out, "payload", total * elem);
    require_consumed(r);
    return;
  }

  if (!(info.error_bound > 0.0) || !std::isfinite(info.error_bound))
    throw FormatError("DPZ archive has an invalid error bound");
  const std::uint64_t m = info.layout.m;
  const std::uint64_t n = info.layout.n;
  const std::uint64_t k = info.k;
  if (!valid_blocks(info.layout, total, info.k) ||
      info.outlier_count > k * n)
    throw FormatError("inconsistent DPZ archive geometry");

  // Side data: means, optional scales, the score scale, the f32 basis.
  read_section(r, out, "side",
               m * 8 * (info.standardized ? 2 : 1) + 8 + m * k * 4);
  read_section(r, out, "codes", k * n * (info.wide_codes ? 2 : 1));
  read_section(r, out, "outliers", info.outlier_count * elem);
  require_consumed(r);
}

void parse_layout(std::span<const std::uint8_t> bytes, ChunkedLayout& out) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.get_u32();
  if (magic != kChunkedMagicV1 && magic != kChunkedMagicV2 &&
      magic != kChunkedMagicV3)
    throw FormatError("not a chunked DPZ container");
  out.kind = "chunked";
  const std::uint8_t version = read_version(
      r, magic != kChunkedMagicV1,
      magic == kChunkedMagicV2 ? kFormatVersion : kChunkedFormatVersion3,
      "chunked container");
  out.version = version;
  out.shape = read_shape(r, "chunked container");
  out.total = static_cast<std::size_t>(element_count(out.shape));
  out.chunk_values = static_cast<std::size_t>(r.get_u64());
  out.frame_count = static_cast<std::size_t>(r.get_u64());
  // The chunk geometry fully determines the frame count, so demand the
  // exact value: best-effort recovery needs every frame's slot from the
  // header alone. The table must also fit the input before it sizes
  // the vectors below.
  const std::size_t entry = version >= kFormatVersion ? 20 : 16;
  if (out.chunk_values < 8 || out.chunk_values > kMaxElements ||
      out.frame_count != expected_frame_count(out.total, out.chunk_values) ||
      out.frame_count > r.remaining() / entry)
    throw FormatError("chunked container: inconsistent chunking");

  out.frames.resize(out.frame_count);
  for (Section& frame : out.frames) {
    frame.name = "frame";
    frame.offset = r.get_u64();  // relative to the frame area for now
    frame.size = r.get_u64();
    if (version >= kFormatVersion) {
      frame.crc = Section::Crc::kBytes;
      frame.stored_crc = r.get_u32();
    }
  }
  // v3 appends the parity geometry inside the sealed header: k, m, then
  // per group its shard size and the CRC32C of each of its m shards.
  std::uint64_t parity_bytes = 0;
  if (version >= kChunkedFormatVersion3) {
    out.parity_k = r.get_u8();
    out.parity_m = r.get_u8();
    if (out.parity_k < 1 || out.parity_m < 1 ||
        out.parity_k + out.parity_m > 255)
      throw FormatError("chunked container: bad parity geometry");
    const std::size_t groups = out.groups();
    // Each group's table entry needs at least 8 bytes.
    if (groups > r.remaining() / 8)
      throw FormatError("chunked container: bad parity geometry");
    out.shard_sizes.resize(groups);
    out.shard_offsets.resize(groups);
    out.parity_crcs.resize(groups * out.parity_m);
    for (std::size_t g = 0; g < groups; ++g) {
      out.shard_offsets[g] = parity_bytes;
      out.shard_sizes[g] = r.get_u64();
      if (out.shard_sizes[g] > kMaxElements)
        throw FormatError("chunked container: implausible parity shard");
      // The running total must not wrap 64 bits, or the bound below
      // checks a wrapped sum and shard reads go out of bounds.
      const std::uint64_t group_bytes = out.parity_m * out.shard_sizes[g];
      if (group_bytes > UINT64_MAX - parity_bytes)
        throw FormatError("chunked container: parity exceeds the container");
      parity_bytes += group_bytes;
      for (std::size_t j = 0; j < out.parity_m; ++j)
        out.parity_crcs[g * out.parity_m + j] = r.get_u32();
    }
  }
  check_header_crc(r, bytes, out, "chunked container");

  // Frame table: contiguous frames exactly filling the area between the
  // header and the parity shards. Sizes are archive data, so accumulate
  // against the area instead of trusting the sum not to wrap.
  const std::uint64_t frames_begin = r.position();
  const std::uint64_t tail = bytes.size() - frames_begin;
  if (parity_bytes > tail)
    throw FormatError("chunked container: parity exceeds the container");
  const std::uint64_t frame_area = tail - parity_bytes;
  std::uint64_t expected = 0;
  for (Section& frame : out.frames) {
    if (frame.offset != expected)
      throw FormatError("chunked container: non-contiguous frame table");
    if (frame.size > frame_area - expected)
      throw FormatError("chunked container: frame exceeds the container");
    expected += frame.size;
    frame.offset += frames_begin;
  }
  if (expected != frame_area)
    throw FormatError("chunked container: frame area size mismatch");
  for (std::uint64_t& offset : out.shard_offsets)
    offset += frames_begin + frame_area;
  // Parity runs over zero-padded payloads, so every frame must fit its
  // group's shard.
  for (std::size_t f = 0; f < out.frame_count && out.parity_m != 0; ++f)
    if (out.frames[f].size > out.shard_sizes[f / out.parity_k])
      throw FormatError("chunked container: frame exceeds its parity shard");
}

void parse_layout(std::span<const std::uint8_t> bytes, BasisLayout& out) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.get_u32();
  if (magic != kBasisMagicV1 && magic != kBasisMagicV2)
    throw FormatError("not a shared-basis blob");
  out.kind = "shared-basis";
  out.version = read_version(r, magic == kBasisMagicV2, kFormatVersion,
                             "shared-basis blob");
  const std::uint8_t wide_codes = r.get_u8();
  out.wide_codes = wide_codes != 0;
  out.error_bound = r.get_f64();
  out.shape = read_shape(r, "shared-basis blob");
  read_blocks(r, out.layout);
  out.k = r.get_u32();
  check_header_crc(r, bytes, out, "shared-basis blob");
  if (wide_codes > 1)
    throw FormatError("shared-basis blob: bad wide-codes byte");
  if (!(out.error_bound > 0.0))
    throw FormatError("shared-basis blob: bad error bound");
  if (!valid_blocks(out.layout, element_count(out.shape), out.k))
    throw FormatError("shared-basis blob: inconsistent geometry");
  read_section(r, out, "basis",
               static_cast<std::uint64_t>(out.layout.m) * out.k * 4);
  require_consumed(r);
}

void parse_layout(std::span<const std::uint8_t> bytes, SnapshotLayout& out) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.get_u32();
  if (magic != kSnapshotMagicV1 && magic != kSnapshotMagicV2)
    throw FormatError("not a shared-basis snapshot archive");
  out.kind = "snapshot";
  out.version = read_version(r, magic == kSnapshotMagicV2, kFormatVersion,
                             "snapshot archive");
  out.score_scale = r.get_f64();
  out.outlier_count = r.get_u64();
  check_header_crc(r, bytes, out, "snapshot archive");
  if (!(out.score_scale > 0.0))
    throw FormatError("snapshot archive: bad score scale");
  // Section sizes follow from the codec's geometry, which a snapshot
  // does not carry; SharedBasisCodec::decompress supplies them.
  read_section(r, out, "mean", kAnyRawSize);
  read_section(r, out, "codes", kAnyRawSize);
  read_section(r, out, "outliers", kAnyRawSize);
  require_consumed(r);
}

void put_header(ByteWriter& w, const DpzArchiveInfo& info) {
  w.put_u32(kDpzMagic);
  w.put_u8(kFormatVersion);
  w.put_u8(static_cast<std::uint8_t>(
      (info.wide_codes ? kDpzFlagWideCodes : 0) |
      (info.standardized ? kDpzFlagStandardized : 0) |
      (info.stored_raw ? kDpzFlagStoredRaw : 0) |
      (info.double_precision ? kDpzFlagDouble : 0)));
  w.put_f64(info.error_bound);
  put_shape(w, info.shape);
  if (!info.stored_raw) {
    put_blocks(w, info.layout);
    w.put_u32(static_cast<std::uint32_t>(info.k));
    w.put_u64(info.outlier_count);
  }
  put_header_crc(w);
}

void put_header(ByteWriter& w, const ChunkedLayout& h) {
  const bool parity = h.parity_m != 0;
  w.put_u32(parity ? kChunkedMagicV3 : kChunkedMagicV2);
  w.put_u8(parity ? kChunkedFormatVersion3 : kFormatVersion);
  put_shape(w, h.shape);
  w.put_u64(h.chunk_values);
  w.put_u64(h.frame_count);
  std::uint64_t offset = 0;
  for (const Section& frame : h.frames) {
    w.put_u64(offset);
    w.put_u64(frame.size);
    w.put_u32(frame.stored_crc);
    offset += frame.size;
  }
  if (parity) {
    w.put_u8(static_cast<std::uint8_t>(h.parity_k));
    w.put_u8(static_cast<std::uint8_t>(h.parity_m));
    for (std::size_t g = 0; g < h.groups(); ++g) {
      w.put_u64(h.shard_sizes[g]);
      for (std::size_t j = 0; j < h.parity_m; ++j)
        w.put_u32(h.parity_crcs[g * h.parity_m + j]);
    }
  }
  put_header_crc(w);
}

void put_header(ByteWriter& w, const BasisLayout& h) {
  w.put_u32(kBasisMagicV2);
  w.put_u8(kFormatVersion);
  w.put_u8(h.wide_codes ? 1 : 0);
  w.put_f64(h.error_bound);
  put_shape(w, h.shape);
  put_blocks(w, h.layout);
  w.put_u32(static_cast<std::uint32_t>(h.k));
  put_header_crc(w);
}

void put_header(ByteWriter& w, const SnapshotLayout& h) {
  w.put_u32(kSnapshotMagicV2);
  w.put_u8(kFormatVersion);
  w.put_f64(h.score_scale);
  w.put_u64(h.outlier_count);
  put_header_crc(w);
}

std::uint32_t section_crc(std::uint64_t raw_size,
                          std::span<const std::uint8_t> blob) {
  std::array<std::uint8_t, 8> size_bytes{};
  for (std::size_t i = 0; i < 8; ++i)
    size_bytes[i] = static_cast<std::uint8_t>(raw_size >> (8 * i));
  return crc32c(blob, crc32c(size_bytes));
}

void put_section(ByteWriter& w, std::span<const std::uint8_t> raw,
                 int level, std::size_t basis_bytes) {
  w.put_u64(raw.size());
  const std::vector<std::uint8_t> z =
      zlib_compress_planes(raw, raw.size() - basis_bytes, level);
  w.put_u32(section_crc(raw.size(), z));
  w.put_blob(z);
}

std::vector<std::uint8_t> get_section(std::span<const std::uint8_t> archive,
                                      const Section& section) {
  // Verify-before-inflate: a damaged blob never reaches zlib or the
  // quantizer (dpz_analyze's unguarded-inflate check).
  if (!crc_ok(archive, section)) {
    obs::LogContext ctx;
    ctx.offset = section.offset;
    ctx.section = section.name;
    obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                   ctx, "corrupted section blob");
    throw ChecksumError("section checksum mismatch (corrupted blob)");
  }
  if (const std::string problem = raw_size_problem(section);
      !problem.empty())
    throw FormatError(problem);
  return zlib_decompress(blob_of(archive, section),
                         static_cast<std::size_t>(section.raw_size));
}

Section ChunkedLayout::shard(std::size_t g, std::size_t j) const {
  Section s;
  s.name = "parity";
  s.offset = shard_offsets[g] + j * shard_sizes[g];
  s.size = shard_sizes[g];
  s.crc = Section::Crc::kBytes;
  s.stored_crc = parity_crcs[g * parity_m + j];
  return s;
}

std::pair<std::size_t, std::size_t> ChunkedLayout::slot(
    std::size_t f) const {
  const std::size_t begin = f * chunk_values;
  return {begin, f + 1 < frame_count ? begin + chunk_values : total};
}

std::span<const std::uint8_t> bytes_of(std::span<const std::uint8_t> input,
                                       const Section& section) {
  return input.subspan(static_cast<std::size_t>(section.offset),
                       static_cast<std::size_t>(section.size));
}

std::uint32_t checked_crc(std::span<const std::uint8_t> input,
                          const Section& section) {
  const obs::ScopedSpan crc_span(obs::Span::kCrcCheck);
  obs::count(obs::Counter::kCrcChecks);
  std::uint32_t crc = 0;
  switch (section.crc) {
    case Section::Crc::kHeader:
      crc = crc32c(input.first(static_cast<std::size_t>(section.size) - 4));
      break;
    case Section::Crc::kFramed:
      crc = section_crc(section.raw_size, blob_of(input, section));
      break;
    case Section::Crc::kNone:
    case Section::Crc::kBytes:
      crc = crc32c(bytes_of(input, section));
      break;
  }
  if (crc != section.stored_crc) obs::count(obs::Counter::kCrcFailures);
  return crc;
}

bool crc_ok(std::span<const std::uint8_t> input, const Section& section) {
  return section.crc == Section::Crc::kNone ||
         checked_crc(input, section) == section.stored_crc;
}

std::string raw_size_problem(const Section& section) {
  if (section.expected_raw == kAnyRawSize ||
      section.raw_size == section.expected_raw)
    return {};
  return std::string(section.name) + " section size " +
         std::to_string(section.raw_size) + " does not match the expected " +
         std::to_string(section.expected_raw);
}

std::uint64_t element_count(std::span<const std::size_t> shape) {
  std::uint64_t total = 1;
  for (const std::size_t d : shape) total *= d;
  return total;
}

}  // namespace dpz::detail
