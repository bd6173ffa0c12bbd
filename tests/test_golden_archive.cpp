// Golden-archive format stability: committed archives under tests/golden/
// must (a) be reproduced byte for byte when the same input is re-encoded
// with the same configuration, and (b) decode to a reconstruction that
// matches a fresh encode/decode round trip exactly. Together these pin
// both directions of the format: an encoder change that alters bytes and
// a decoder change that alters reconstructions each fail one arm.
//
// Two generations are committed per case. <name>.v2.dpz is the CURRENT
// format (CRC32C-checksummed, version 2): the encoder must reproduce it.
// <name>.dpz is the FROZEN v1 fixture from before checksums existed: the
// current encoder can no longer produce it, but the reader must keep
// decoding it to byte-for-byte the reconstruction recorded in
// golden_common.h (v1_reconstruction_fnv1a) — that digest is the
// backward-compatibility contract. The v1 and v2 reconstructions are
// additionally required to agree to within the configured error bound:
// encoder numerics may evolve (a kernel rewrite moves eigenvector bits
// at the 1e-11 level), but both generations must describe the same data.
// Cases added after checksums existed (stored-raw, DZC3 parity) have only
// the .v2 file. Every .v2 file also pins the writers against the parsers:
// writing back the header a parse returns must give the file's bytes.
//
// After a DELIBERATE format change, regenerate the .v2 files with
// tests/make_golden and commit the new bytes alongside a docs/FORMAT.md
// version note. Never regenerate or delete the plain v1 fixtures; the
// v1 digests change only with a deliberate DECODER change, in which case
// make_golden prints the fresh values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "codec/bytes.h"
#include "core/layout.h"
#include "golden_common.h"
#include "io/file_io.h"
#include "metrics/metrics.h"

namespace dpz {
namespace {

using namespace dpz::golden;

std::string golden_path(const std::string& name, const char* ext) {
  return std::string(DPZ_GOLDEN_DIR) + "/" + name + ext;
}

std::vector<std::uint8_t> float_bytes(const FloatArray& a) {
  std::vector<std::uint8_t> bytes(a.size() * sizeof(float));
  std::memcpy(bytes.data(), a.flat().data(), bytes.size());
  return bytes;
}

std::vector<std::uint8_t> double_bytes(const DoubleArray& a) {
  std::vector<std::uint8_t> bytes(a.size() * sizeof(double));
  std::memcpy(bytes.data(), a.flat().data(), bytes.size());
  return bytes;
}

GoldenCase find_case(const std::string& name) {
  for (const GoldenCase& c : golden_cases())
    if (c.name == name) return c;
  ADD_FAILURE() << "unknown golden case " << name;
  return {};
}

// The frozen v1 fixture must decode to exactly the bytes recorded when it
// was frozen — the reader-side half of the compatibility contract.
void expect_v1_digest(const std::string& name,
                      const std::vector<std::uint8_t>& reconstruction) {
  EXPECT_EQ(fnv1a_bytes(reconstruction.data(), reconstruction.size()),
            v1_reconstruction_fnv1a(name))
      << "v1 fixture " << name
      << " no longer decodes to its recorded reconstruction";
}

// Both generations encode the same input under the same bound, so their
// reconstructions may differ only by re-quantization noise: at most one
// bin width (2P) per element, and in practice last-bit rounding.
template <typename Span>
void expect_within_bound(const std::string& name, Span a, Span b,
                         double error_bound) {
  ASSERT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) -
                              static_cast<double>(b[i]));
    if (d > max_diff) max_diff = d;
  }
  EXPECT_LE(max_diff, 2.0 * error_bound)
      << "v1/v2 reconstructions of " << name << " disagree beyond the bound";
}

void check_dpz_f32(const std::string& name) {
  const GoldenCase c = find_case(name);
  const FloatArray input = golden_f32(c);
  const std::vector<std::uint8_t> v1 =
      read_bytes(golden_path(c.name, ".dpz"));
  const std::vector<std::uint8_t> v2 =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  EXPECT_EQ(dpz_compress(input, golden_config(c)), v2)
      << "re-encoding no longer reproduces " << c.name
      << " — format drift; see tests/make_golden.cpp";
  EXPECT_EQ(dpz_inspect(v1).version, 1);
  EXPECT_EQ(dpz_inspect(v2).version, 2);

  const FloatArray from_v2 = dpz_decompress(v2);
  EXPECT_EQ(from_v2.shape(), input.shape());
  const ErrorStats err =
      compute_error_stats(input.flat(), from_v2.flat());
  EXPECT_GT(err.psnr_db, 30.0) << c.name << " decodes to garbage";

  // Backward compatibility: the legacy archive still decodes to its
  // recorded bytes, and both generations agree to within the bound.
  const FloatArray from_v1 = dpz_decompress(v1);
  EXPECT_EQ(from_v1.shape(), from_v2.shape());
  expect_v1_digest(c.name, float_bytes(from_v1));
  expect_within_bound(c.name, from_v1.flat(), from_v2.flat(),
                      golden_config(c).effective_error_bound());
}

TEST(GoldenArchive, Dpz1DF32Loose) { check_dpz_f32("dpz_1d_f32_loose"); }
TEST(GoldenArchive, Dpz2DF32Strict) { check_dpz_f32("dpz_2d_f32_strict"); }
TEST(GoldenArchive, Dpz3DF32Strict) { check_dpz_f32("dpz_3d_f32_strict"); }

TEST(GoldenArchive, Dpz2DF64Strict) {
  const GoldenCase c = find_case("dpz_2d_f64_strict");
  const DoubleArray input = golden_f64(c);
  const std::vector<std::uint8_t> v1 =
      read_bytes(golden_path(c.name, ".dpz"));
  const std::vector<std::uint8_t> v2 =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  EXPECT_EQ(dpz_compress(input, golden_config(c)), v2)
      << "re-encoding no longer reproduces " << c.name;
  EXPECT_EQ(dpz_inspect(v1).version, 1);
  EXPECT_EQ(dpz_inspect(v2).version, 2);

  const DoubleArray from_v2 = dpz_decompress_f64(v2);
  EXPECT_EQ(from_v2.shape(), input.shape());
  const ErrorStats err =
      compute_error_stats(input.flat(), from_v2.flat());
  EXPECT_GT(err.psnr_db, 30.0) << c.name << " decodes to garbage";

  const DoubleArray from_v1 = dpz_decompress_f64(v1);
  EXPECT_EQ(from_v1.shape(), from_v2.shape());
  expect_v1_digest(c.name, double_bytes(from_v1));
  expect_within_bound(c.name, from_v1.flat(), from_v2.flat(),
                      golden_config(c).effective_error_bound());
}

TEST(GoldenArchive, Chunked2DF32Strict) {
  const GoldenCase c = find_case("chunked_2d_f32_strict");
  const FloatArray input = golden_f32(c);
  const std::vector<std::uint8_t> v1 =
      read_bytes(golden_path(c.name, ".dpz"));
  const std::vector<std::uint8_t> v2 =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  EXPECT_EQ(chunked_compress(input, golden_chunked_config(c)), v2)
      << "re-encoding no longer reproduces " << c.name;
  EXPECT_GT(chunked_frame_count(v2), std::size_t{1})
      << "golden container should hold several frames";
  EXPECT_EQ(chunked_frame_count(v1), chunked_frame_count(v2));

  const FloatArray from_v2 = chunked_decompress(v2);
  EXPECT_EQ(from_v2.shape(), input.shape());
  const ErrorStats err =
      compute_error_stats(input.flat(), from_v2.flat());
  EXPECT_GT(err.psnr_db, 30.0) << c.name << " decodes to garbage";

  const FloatArray from_v1 = chunked_decompress(v1);
  EXPECT_EQ(from_v1.shape(), from_v2.shape());
  expect_v1_digest(c.name, float_bytes(from_v1));
  expect_within_bound(c.name, from_v1.flat(), from_v2.flat(),
                      golden_config(c).effective_error_bound());
}

TEST(GoldenArchive, SharedBasis2DF32Strict) {
  const GoldenCase c = find_case("shared_basis_2d_f32_strict");
  const FloatArray reference = golden_f32(c);
  const FloatArray snapshot = golden_snapshot(c);
  const std::vector<std::uint8_t> v1_blob =
      read_bytes(golden_path(c.name, ".blob"));
  const std::vector<std::uint8_t> v1_archive =
      read_bytes(golden_path(c.name, ".dpz"));
  const std::vector<std::uint8_t> v2_blob =
      read_bytes(golden_path(c.name, ".v2.blob"));
  const std::vector<std::uint8_t> v2_archive =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  const SharedBasisCodec trained =
      SharedBasisCodec::train(reference, golden_config(c));
  EXPECT_EQ(trained.serialize(), v2_blob)
      << "re-training no longer reproduces the golden basis blob";
  EXPECT_EQ(trained.compress(snapshot), v2_archive)
      << "re-encoding no longer reproduces the golden snapshot archive";

  // The committed blob alone must be able to open the committed archive.
  const SharedBasisCodec restored =
      SharedBasisCodec::deserialize(v2_blob);
  const FloatArray decoded = restored.decompress(v2_archive);
  EXPECT_EQ(decoded.shape(), snapshot.shape());
  const ErrorStats err =
      compute_error_stats(snapshot.flat(), decoded.flat());
  EXPECT_GT(err.psnr_db, 30.0) << c.name << " decodes to garbage";
  // And it must agree byte for byte with the trainer's own decode.
  EXPECT_EQ(float_bytes(decoded),
            float_bytes(trained.decompress(v2_archive)));

  // Backward compatibility: the frozen v1 blob still opens the frozen v1
  // snapshot to its recorded bytes, and both generations reconstruct the
  // same data to within the bound.
  const SharedBasisCodec legacy = SharedBasisCodec::deserialize(v1_blob);
  const FloatArray legacy_decoded = legacy.decompress(v1_archive);
  expect_v1_digest(c.name, float_bytes(legacy_decoded));
  expect_within_bound(c.name, legacy_decoded.flat(), decoded.flat(),
                      golden_config(c).effective_error_bound());
  // Cross-generation: a v2 reader holding the v1 basis opens the v2
  // archive (the section framing is per-container, not per-codec). The
  // trained bases differ in their last bits, so compare within bound.
  const FloatArray cross = legacy.decompress(v2_archive);
  expect_within_bound(c.name, cross.flat(), decoded.flat(),
                      golden_config(c).effective_error_bound());
}

TEST(GoldenArchive, StoredRaw1DF32) {
  const GoldenCase c = find_case("stored_1d_f32_strict");
  const FloatArray input = golden_f32(c);
  const std::vector<std::uint8_t> v2 =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  DpzStats stats;
  EXPECT_EQ(dpz_compress(input, golden_config(c), &stats), v2)
      << "re-encoding no longer reproduces " << c.name;
  EXPECT_TRUE(stats.stored_raw);
  EXPECT_TRUE(dpz_inspect(v2).stored_raw);
  EXPECT_EQ(float_bytes(dpz_decompress(v2)), float_bytes(input))
      << "a stored-raw archive decodes bit-exactly";
}

TEST(GoldenArchive, ChunkedParity2DF32Strict) {
  const GoldenCase c = find_case("chunked_parity_2d_f32_strict");
  const FloatArray input = golden_f32(c);
  const std::vector<std::uint8_t> v2 =
      read_bytes(golden_path(c.name, ".v2.dpz"));

  EXPECT_EQ(chunked_compress(input, golden_chunked_config(c)), v2)
      << "re-encoding no longer reproduces " << c.name;
  const ParityInfo parity = chunked_parity_info(v2);
  EXPECT_EQ(parity.parity_k, 4U);
  EXPECT_EQ(parity.parity_m, 1U);
  EXPECT_EQ(parity.groups, 2U) << "a full group and a short final one";

  const FloatArray decoded = chunked_decompress(v2);
  EXPECT_EQ(decoded.shape(), input.shape());
  EXPECT_GT(compute_error_stats(input.flat(), decoded.flat()).psnr_db, 30.0)
      << c.name << " decodes to garbage";
}

// The .v2 fixtures decode to their recorded bytes. Re-encoding pins the
// writer and this pins the reader on the current generation, so a
// regeneration that moves only deflate bytes (the section streams are
// not normative) shows as unchanged values here.
TEST(GoldenArchive, V2FixturesDecodeToRecordedBytes) {
  for (const GoldenCase& c : golden_cases()) {
    const std::vector<std::uint8_t> blob =
        c.kind == Kind::kSharedBasis
            ? read_bytes(golden_path(c.name, ".v2.blob"))
            : std::vector<std::uint8_t>{};
    EXPECT_EQ(decode_fnv1a(c.kind, read_bytes(golden_path(c.name, ".v2.dpz")),
                           blob),
              v2_reconstruction_fnv1a(c.name))
        << c.name << ".v2 no longer decodes to its recorded reconstruction";
  }
}

// put_header(parse_layout(bytes)) must give back the file's header: the
// writers and the parsers state one format.
template <typename L>
void expect_header_written_back(std::span<const std::uint8_t> bytes,
                                const std::string& name) {
  const L parsed = detail::parse_layout<L>(bytes);
  ASSERT_FALSE(parsed.sections.empty());
  ByteWriter w;
  if constexpr (std::is_same_v<L, detail::DpzLayout>) {
    detail::put_header(w, parsed.info);
  } else {
    detail::put_header(w, parsed);
  }
  const std::span<const std::uint8_t> header =
      bytes.first(static_cast<std::size_t>(parsed.sections[0].size));
  EXPECT_TRUE(std::equal(w.bytes().begin(), w.bytes().end(), header.begin(),
                         header.end()))
      << name << ": the written-back header differs from the file's";
}

void expect_header_written_back(std::span<const std::uint8_t> bytes,
                                const std::string& name) {
  switch (detail::format_of(bytes)) {
    case detail::Format::kDpz:
      expect_header_written_back<detail::DpzLayout>(bytes, name);
      break;
    case detail::Format::kChunked: {
      expect_header_written_back<detail::ChunkedLayout>(bytes, name);
      // Every frame is a DPZ archive of its own.
      const auto h = detail::parse_layout<detail::ChunkedLayout>(bytes);
      for (std::size_t f = 0; f < h.frame_count; ++f)
        expect_header_written_back<detail::DpzLayout>(
            detail::bytes_of(bytes, h.frames[f]),
            name + " frame " + std::to_string(f));
      break;
    }
    case detail::Format::kBasis:
      expect_header_written_back<detail::BasisLayout>(bytes, name);
      break;
    case detail::Format::kSnapshot:
      expect_header_written_back<detail::SnapshotLayout>(bytes, name);
      break;
    case detail::Format::kUnknown:
      ADD_FAILURE() << name << " is not a recognized container";
      break;
  }
}

TEST(GoldenArchive, WritersAgreeWithParsers) {
  for (const GoldenCase& c : golden_cases()) {
    expect_header_written_back(read_bytes(golden_path(c.name, ".v2.dpz")),
                               c.name + ".v2.dpz");
    if (c.kind == Kind::kSharedBasis)
      expect_header_written_back(read_bytes(golden_path(c.name, ".v2.blob")),
                                 c.name + ".v2.blob");
  }
}

TEST(GoldenArchive, HeadersParseAsRecorded) {
  // Header-level invariants the format promises, checked on the
  // committed bytes (no re-encode involved).
  const std::vector<std::uint8_t> loose =
      read_bytes(golden_path("dpz_1d_f32_loose", ".dpz"));
  const DpzArchiveInfo li = dpz_inspect(loose);
  EXPECT_FALSE(li.double_precision);
  EXPECT_FALSE(li.wide_codes);
  EXPECT_DOUBLE_EQ(li.error_bound, 1e-3);
  EXPECT_EQ(li.shape, std::vector<std::size_t>{4096});
  EXPECT_EQ(li.version, 1);

  const std::vector<std::uint8_t> wide =
      read_bytes(golden_path("dpz_2d_f64_strict", ".v2.dpz"));
  const DpzArchiveInfo wi = dpz_inspect(wide);
  EXPECT_TRUE(wi.double_precision);
  EXPECT_TRUE(wi.wide_codes);
  EXPECT_DOUBLE_EQ(wi.error_bound, 1e-4);
  EXPECT_EQ(wi.shape, (std::vector<std::size_t>{64, 72}));
  EXPECT_EQ(wi.version, 2);
}

}  // namespace
}  // namespace dpz
