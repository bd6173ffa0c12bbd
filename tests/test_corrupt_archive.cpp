// Table-driven malformed-archive tests: every targeted corruption of a
// valid archive must surface as a recoverable FormatError (StatusCode
// kFormat) — never a crash, never an unclassified exception — across the
// C++ DPZ decoder, the chunked container, and the C API.
//
// Unlike the randomized harness in fuzz_decode.cpp, each row here forges a
// *specific* header or section field at a known offset, so a regression in
// one validation check fails one named row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "capi/dpz_c.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/layout.h"
#include "core/shared_basis.h"
#include "core/verify.h"
#include "mutator.h"
#include "util/crc32c.h"
#include "util/error.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray wave(std::vector<std::size_t> shape, std::uint64_t seed) {
  FloatArray a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.02) +
                              0.01 * rng.normal());
  return a;
}

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes[offset + i]) << (8 * i);
  return v;
}

void write_u32_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                  std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

struct CorruptionCase {
  const char* name;
  std::function<void(std::vector<std::uint8_t>&)> corrupt;
  const char* expect_substring;  // nullptr = any FormatError message
};

// DPZ rank-2 v2 archive layout (see docs/FORMAT.md): magic u32 @0,
// version u8 @4, flags u8 @5, error bound f64 @6, rank u8 @14,
// dims 2*u64 @15, m u64 @31, n u64 @39, original_total u64 @47,
// k u32 @55, outlier_count u64 @59, header CRC32C u32 @67, side section
// raw_size u64 @71 (followed by the side section's own crc u32 @79).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffFlags = 5;
constexpr std::size_t kOffRank = 14;
constexpr std::size_t kOffDim0 = 15;
constexpr std::size_t kOffM = 31;
constexpr std::size_t kOffN = 39;
constexpr std::size_t kOffK = 55;
constexpr std::size_t kOffOutliers = 59;
constexpr std::size_t kOffHeaderCrc = 67;
constexpr std::size_t kOffSideRawSize = 71;

// Recomputes the header seal after a deliberate field forgery, so the row
// exercises the deep validation layer (geometry, section sizes) instead
// of stopping at the checksum. Rows WITHOUT this reseal prove the seal
// itself fires.
void reseal_dpz_header(std::vector<std::uint8_t>& bytes) {
  write_u32_at(bytes, kOffHeaderCrc,
               crc32c(std::span(bytes.data(), kOffHeaderCrc)));
}

void run_cases(const std::vector<std::uint8_t>& valid,
               const std::vector<CorruptionCase>& cases,
               const std::function<void(std::span<const std::uint8_t>)>&
                   decode) {
  // The pristine archive must decode — otherwise the table tests nothing.
  ASSERT_NO_THROW(decode(valid));
  ASSERT_TRUE(verify_archive(valid).ok);
  for (const CorruptionCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> bytes = valid;
    c.corrupt(bytes);
    // verify_archive walks the decoder's own layout parse, so it must
    // flag every row the decoder rejects.
    EXPECT_FALSE(verify_archive(bytes).ok);
    try {
      decode(bytes);
      FAIL() << "corrupted archive decoded without error";
    } catch (const FormatError& e) {
      // kChecksum is the v2 refinement of kFormat (ChecksumError derives
      // from FormatError); both are the recoverable malformed-bytes class.
      EXPECT_TRUE(e.code() == StatusCode::kFormat ||
                  e.code() == StatusCode::kChecksum)
          << "code " << static_cast<int>(e.code());
      EXPECT_NE(std::string(e.what()), "");
      if (c.expect_substring != nullptr) {
        EXPECT_NE(std::string(e.what()).find(c.expect_substring),
                  std::string::npos)
            << "message: " << e.what();
      }
    }
    // Any non-FormatError exception propagates out of the try and fails
    // the test: malformed bytes may only produce the recoverable status.
  }
}

class CorruptDpzArchive : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = dpz_compress(wave({64, 96}, 7), DpzConfig::strict());
    // The offset table above assumes a regular (non-stored) rank-2
    // archive; bail loudly if the encoder ever changes that for this
    // input rather than silently corrupting the wrong fields.
    ASSERT_GT(archive_.size(), kOffSideRawSize + 12);
    ASSERT_EQ(archive_[kOffVersion], 2);
    ASSERT_EQ(archive_[kOffRank], 2);
    ASSERT_EQ(archive_[kOffFlags] & 0x04, 0) << "unexpected stored-raw";
  }

  std::vector<std::uint8_t> archive_;
};

TEST_F(CorruptDpzArchive, TableDriven) {
  const std::vector<CorruptionCase> cases = {
      {"empty", [](auto& b) { b.clear(); }, nullptr},
      {"truncated-header", [](auto& b) { b.resize(10); }, nullptr},
      {"truncated-half", [](auto& b) { b.resize(b.size() / 2); }, nullptr},
      {"truncated-in-side-section",
       [](auto& b) { b.resize(kOffSideRawSize + 3); }, nullptr},
      {"bad-magic", [](auto& b) { b[0] ^= 0xFF; }, "not a DPZ archive"},
      {"bad-version", [](auto& b) { b[kOffVersion] = 9; }, "version"},
      {"zero-rank", [](auto& b) { b[kOffRank] = 0; }, "rank"},
      {"rank-5", [](auto& b) { b[kOffRank] = 5; }, "rank"},
      {"zero-dim", [](auto& b) { write_u64_at(b, kOffDim0, 0); },
       "extent"},
      {"huge-dim",
       [](auto& b) { write_u64_at(b, kOffDim0, std::uint64_t{1} << 50); },
       nullptr},
      // Resealed forgeries: the header CRC is recomputed so the geometry
      // invariants (not the seal) must reject the row.
      {"zero-m",
       [](auto& b) {
         write_u64_at(b, kOffM, 0);
         reseal_dpz_header(b);
       },
       "geometry"},
      {"m-equals-n",
       [](auto& b) {
         write_u64_at(b, kOffM, read_u64_at(b, kOffN));
         reseal_dpz_header(b);
       },
       "geometry"},
      {"zero-k",
       [](auto& b) {
         write_u32_at(b, kOffK, 0);
         reseal_dpz_header(b);
       },
       "geometry"},
      {"huge-outlier-count",
       [](auto& b) {
         write_u64_at(b, kOffOutliers, ~std::uint64_t{0});
         reseal_dpz_header(b);
       },
       "geometry"},
      // Flag bits 4-7 are reserved: a header setting one must not
      // decode as if the bit were clear.
      {"reserved-flag-bit-4",
       [](auto& b) {
         b[kOffFlags] |= 0x10;
         reseal_dpz_header(b);
       },
       "reserved header flag bits"},
      {"reserved-flag-bit-7",
       [](auto& b) {
         b[kOffFlags] |= 0x80;
         reseal_dpz_header(b);
       },
       "reserved header flag bits"},
      // Unsealed forgery: the same field flip without the reseal must be
      // reported as header corruption by the CRC.
      {"forged-m-unsealed", [](auto& b) { write_u64_at(b, kOffM, 0); },
       "header checksum mismatch"},
      {"oversized-section-length",
       [](auto& b) {
         write_u64_at(b, kOffSideRawSize, std::uint64_t{1} << 40);
       },
       nullptr},
      {"zero-section-length",
       [](auto& b) { write_u64_at(b, kOffSideRawSize, 0); }, nullptr},
      // Section-body damage is caught by the section's own CRC before
      // the blob reaches the inflater.
      // raw_size u64 + crc u32 + blob_len u64 = 20 bytes of framing, so
      // +20 lands on the first byte of the side section's zlib blob.
      {"flipped-side-section-byte",
       [](auto& b) { b[kOffSideRawSize + 20] ^= 0x10; },
       "section checksum mismatch"},
      {"forged-side-section-crc",
       [](auto& b) { b[kOffSideRawSize + 8] ^= 0xFF; },
       "section checksum mismatch"},
      // Bytes after the last section are damage, not padding.
      {"appended-bytes", [](auto& b) { b.insert(b.end(), {0x00, 0x5A}); },
       "trailing bytes"},
  };
  run_cases(archive_, cases, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_decompress(bytes);
  });
}

TEST_F(CorruptDpzArchive, InspectRejectsHeaderCorruption) {
  // dpz_inspect parses only the header, so the header rows must fail the
  // same way there (section corruption may legitimately pass inspection).
  const std::vector<CorruptionCase> cases = {
      {"empty", [](auto& b) { b.clear(); }, nullptr},
      {"bad-magic", [](auto& b) { b[0] ^= 0xFF; }, "not a DPZ archive"},
      {"bad-version", [](auto& b) { b[kOffVersion] = 9; }, "version"},
      {"zero-rank", [](auto& b) { b[kOffRank] = 0; }, "rank"},
      {"zero-dim", [](auto& b) { write_u64_at(b, kOffDim0, 0); },
       "extent"},
      // Inspection verifies the header seal too: a flipped geometry
      // field is corruption even to a header-only reader.
      {"forged-m-unsealed", [](auto& b) { write_u64_at(b, kOffM, 0); },
       "header checksum mismatch"},
      {"reserved-flag-bit-6",
       [](auto& b) {
         b[kOffFlags] |= 0x40;
         reseal_dpz_header(b);
       },
       "reserved header flag bits"},
  };
  run_cases(archive_, cases, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_inspect(bytes);
  });
}

// Satellite regression: a side section whose byte count disagrees with the
// (m, k, standardized) the header claims must be rejected by the exact-size
// precheck in deserialize_side — before any partial parse or allocation.
TEST_F(CorruptDpzArchive, TruncatedSideSectionIsRejected) {
  std::vector<std::uint8_t> bytes = archive_;
  const std::uint32_t k = read_u32_at(bytes, kOffK);
  const std::uint64_t m = read_u64_at(bytes, kOffM);
  ASSERT_GE(k, 1U);
  // Nudge k by one (staying inside the geometry envelope k in [1, m]) so
  // every header invariant still holds but the side payload no longer
  // matches the m*k-determined layout.
  const std::uint32_t forged_k = (k + 1 <= m) ? k + 1 : k - 1;
  ASSERT_GE(forged_k, 1U);
  write_u32_at(bytes, kOffK, forged_k);
  reseal_dpz_header(bytes);  // past the seal, into deserialize_side
  try {
    (void)dpz_decompress(bytes);
    FAIL() << "inconsistent side section decoded without error";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("side section size"),
              std::string::npos)
        << "message: " << e.what();
  }
}

// Where the header seal of a pristine `L` sits, so a forgery of any
// container can be resealed without a per-format offset table.
template <typename L>
std::size_t seal_offset(const std::vector<std::uint8_t>& valid) {
  return static_cast<std::size_t>(
      detail::parse_layout<L>(valid).sections.front().size - 4);
}

void reseal_at(std::vector<std::uint8_t>& bytes, std::size_t seal) {
  write_u32_at(bytes, seal, crc32c(std::span(bytes.data(), seal)));
}

TEST(CorruptStoredArchive, ReservedFlagBitsAreRejected) {
  Rng rng(67);
  FloatArray noise({5000});
  for (float& v : noise.flat()) v = static_cast<float>(rng.normal());
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999999;
  config.error_bound = 1e-12;  // every score escapes: stored-raw
  const std::vector<std::uint8_t> valid = dpz_compress(noise, config);
  ASSERT_TRUE(dpz_inspect(valid).stored_raw);
  const std::size_t seal = seal_offset<detail::DpzLayout>(valid);
  const std::vector<CorruptionCase> cases = {
      {"reserved-flag-bit-5",
       [seal](auto& b) {
         b[kOffFlags] |= 0x20;
         reseal_at(b, seal);
       },
       "reserved header flag bits"},
  };
  run_cases(valid, cases, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_decompress(bytes);
  });
}

TEST(CorruptSharedBasisBlob, WideCodesByteIsZeroOrOne) {
  // Blob layout: magic u32 @0, version u8 @4, wide-codes u8 @5.
  constexpr std::size_t kOffWideCodes = 5;
  const std::vector<std::uint8_t> valid =
      SharedBasisCodec::train(wave({64, 96}, 11), DpzConfig::strict())
          .serialize();
  ASSERT_EQ(valid[kOffWideCodes], 1);
  const std::size_t seal = seal_offset<detail::BasisLayout>(valid);
  const std::vector<CorruptionCase> cases = {
      {"wide-codes-byte-2",
       [seal](auto& b) {
         b[kOffWideCodes] = 2;
         reseal_at(b, seal);
       },
       "wide-codes byte"},
  };
  run_cases(valid, cases, [](std::span<const std::uint8_t> bytes) {
    (void)SharedBasisCodec::deserialize(bytes);
  });
}

// Chunked v2 container layout ("DZC2", rank-1): magic u32 @0,
// version u8 @4, rank u8 @5, dim0 u64 @6, chunk_values u64 @14,
// frame_count u64 @22, then per-frame (offset u64, size u64, crc u32)
// triples from @30, header CRC32C u32 after the table.
constexpr std::size_t kChkOffVersion = 4;
constexpr std::size_t kChkOffRank = 5;
constexpr std::size_t kChkOffDim0 = 6;
constexpr std::size_t kChkOffChunk = 14;
constexpr std::size_t kChkOffCount = 22;
constexpr std::size_t kChkOffTable = 30;
constexpr std::size_t kChkEntryBytes = 20;

// Reseal for a 2-frame rank-1 container (the fixture below): the header
// CRC sits right after the two 20-byte table entries.
void reseal_chunked_header(std::vector<std::uint8_t>& bytes) {
  const std::size_t crc_off = kChkOffTable + 2 * kChkEntryBytes;
  write_u32_at(bytes, crc_off, crc32c(std::span(bytes.data(), crc_off)));
}

TEST(CorruptChunkedContainer, TableDriven) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  const std::vector<std::uint8_t> valid =
      chunked_compress(wave({2 * 4096}, 8), config);
  ASSERT_GE(valid.size(), kChkOffTable + 2 * kChkEntryBytes + 4);
  ASSERT_EQ(valid[kChkOffVersion], 2);
  ASSERT_EQ(valid[kChkOffRank], 1);
  const std::vector<CorruptionCase> cases = {
      {"empty", [](auto& b) { b.clear(); }, nullptr},
      {"truncated-header", [](auto& b) { b.resize(8); }, nullptr},
      {"truncated-half", [](auto& b) { b.resize(b.size() / 2); }, nullptr},
      {"bad-magic", [](auto& b) { b[0] ^= 0xFF; }, nullptr},
      {"bad-version", [](auto& b) { b[kChkOffVersion] = 9; }, "version"},
      {"zero-rank", [](auto& b) { b[kChkOffRank] = 0; }, nullptr},
      {"zero-dim", [](auto& b) { write_u64_at(b, kChkOffDim0, 0); },
       nullptr},
      {"huge-frame-count",
       [](auto& b) {
         write_u64_at(b, kChkOffCount, std::uint64_t{1} << 50);
       },
       "inconsistent chunking"},
      // Resealed table forgeries: the contiguity/bounds checks (not the
      // seal) must reject them.
      {"oversized-frame-size",
       [](auto& b) {
         write_u64_at(b, kChkOffTable + 8, std::uint64_t{1} << 40);
         reseal_chunked_header(b);
       },
       nullptr},
      {"frame-overlap-forged-offset",
       [](auto& b) {
         write_u64_at(b, kChkOffTable + kChkEntryBytes, ~std::uint64_t{0});
         reseal_chunked_header(b);
       },
       nullptr},
      // The same offset forgery without the reseal is header corruption:
      // v2 seals the frame table too.
      {"forged-table-unsealed",
       [](auto& b) {
         write_u64_at(b, kChkOffTable + kChkEntryBytes, ~std::uint64_t{0});
       },
       "header checksum mismatch"},
      // A flipped frame byte fails that frame's CRC before its bytes
      // reach the DPZ decoder.
      {"frame-payload-bit-flip",
       [](auto& b) { b[b.size() - 100] ^= 0x01; }, "checksum mismatch"},
      // Shape forgeries must be rejected by the header-only pre-pass,
      // i.e. with the shape-mismatch message even when a frame payload
      // byte is also corrupted — decoding a frame before the claimed
      // sizes are reconciled would surface a frame decode error instead.
      // The forged totals keep expected_frame_count at 2 (the tail-merge
      // envelope is [chunk + 8, 2 * chunk] for two frames, plus the
      // merged (2 * chunk, 2 * chunk + 8) tail) so the exact-chunking
      // check passes and the deeper pre-pass does the rejecting.
      {"shape-smaller-than-frames",
       [](auto& b) {
         write_u64_at(b, kChkOffDim0, 4096 + 8);
         b[b.size() / 2] ^= 0xFF;
         reseal_chunked_header(b);
       },
       "frames exceed the shape"},
      {"shape-larger-than-frames",
       [](auto& b) {
         write_u64_at(b, kChkOffDim0, 2 * 4096 + 3);
         reseal_chunked_header(b);
       },
       "frames do not cover the shape"},
  };
  run_cases(valid, cases, [](std::span<const std::uint8_t> bytes) {
    (void)chunked_decompress(bytes);
  });
}

// verify_archive and the strict decoder share one tiling check, so a
// container whose frames over- or under-cover its shape reads the same
// from both.
TEST(CorruptChunkedContainer, TilingProblemIsWordedOnce) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  const std::vector<std::uint8_t> valid =
      chunked_compress(wave({2 * 4096}, 8), config);
  const struct {
    std::uint64_t dim0;
    const char* problem;
  } forgeries[] = {
      {4096 + 8, "chunked container: frames exceed the shape"},
      {2 * 4096 + 3, "chunked container: frames do not cover the shape"},
  };
  for (const auto& forgery : forgeries) {
    SCOPED_TRACE(forgery.problem);
    std::vector<std::uint8_t> bytes = valid;
    write_u64_at(bytes, kChkOffDim0, forgery.dim0);
    reseal_chunked_header(bytes);
    const VerifyReport rep = verify_archive(bytes);
    EXPECT_EQ(rep.problems, std::vector<std::string>{forgery.problem});
    try {
      (void)chunked_decompress(bytes);
      FAIL() << "a container whose frames do not tile its shape decoded";
    } catch (const FormatError& e) {
      EXPECT_EQ(std::string(e.what()), forgery.problem);
    }
  }
}

// Chunked v3 layout for the 4-frame, rank-1, parity-4+2 fixture below:
// the v2 prefix (magic, version, rank, dim0, chunk_values, frame_count,
// 4 x 20-byte table entries) ends at 110, then parity_k u8 @110,
// parity_m u8 @111, the single group's shard_size u64 @112 and two
// parity CRC32Cs @120, header CRC u32 @128.
constexpr std::size_t kV3OffParityK = 110;
constexpr std::size_t kV3OffParityM = 111;
constexpr std::size_t kV3OffShardSize = 112;
constexpr std::size_t kV3OffParityCrc = 120;
constexpr std::size_t kV3OffHeaderCrc = 128;

void reseal_v3_header(std::vector<std::uint8_t>& bytes) {
  write_u32_at(bytes, kV3OffHeaderCrc,
               crc32c(std::span(bytes.data(), kV3OffHeaderCrc)));
}

TEST(CorruptChunkedContainer, ParityGeometryTableDriven) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 4;
  config.parity_m = 2;
  const std::vector<std::uint8_t> valid =
      chunked_compress(wave({4 * 4096}, 18), config);
  ASSERT_EQ(valid[kChkOffVersion], 3);
  ASSERT_EQ(valid[kV3OffParityK], 4);
  ASSERT_EQ(valid[kV3OffParityM], 2);
  const std::vector<CorruptionCase> cases = {
      // Resealed geometry forgeries: the parity validation (not the
      // header seal) must reject them.
      {"zero-parity-k",
       [](auto& b) {
         b[kV3OffParityK] = 0;
         reseal_v3_header(b);
       },
       "parity"},
      {"zero-parity-m",
       [](auto& b) {
         b[kV3OffParityM] = 0;
         reseal_v3_header(b);
       },
       "parity"},
      {"parity-geometry-overflow",
       [](auto& b) {
         b[kV3OffParityK] = 255;
         b[kV3OffParityM] = 255;
         reseal_v3_header(b);
       },
       "parity"},
      {"huge-shard-size",
       [](auto& b) {
         write_u64_at(b, kV3OffShardSize, std::uint64_t{1} << 50);
         reseal_v3_header(b);
       },
       nullptr},
      {"shard-smaller-than-frame",
       [](auto& b) {
         write_u64_at(b, kV3OffShardSize, 8);
         reseal_v3_header(b);
       },
       nullptr},
      // Unsealed forgery: the parity CRCs live under the header seal, so
      // flipping one is header corruption, never a trusted field.
      {"forged-parity-crc-unsealed",
       [](auto& b) { b[kV3OffParityCrc] ^= 0xFF; },
       "header checksum mismatch"},
      {"truncated-into-parity-area",
       [](auto& b) { b.resize(b.size() - 10); }, nullptr},
      {"v2-magic-on-v3-body", [](auto& b) { b[3] = 0x32; }, "version"},
      // Resealed: 4 frames of 4096 values cannot come from chunks of 8192.
      {"chunk-values-doubled",
       [](auto& b) {
         write_u64_at(b, kChkOffChunk, 2 * read_u64_at(b, kChkOffChunk));
         reseal_v3_header(b);
       },
       "inconsistent chunking"},
  };
  run_cases(valid, cases, [](std::span<const std::uint8_t> bytes) {
    (void)chunked_decompress(bytes);
  });
}

// A forged DZC3 header whose per-group parity sizes sum to 2^64 + 252:
// the accumulator wraps to 252, which fits the trailing 252 bytes this
// forgery appends, so every post-wrap bound check passes and shard reads
// go out of bounds. The parser must reject the accumulation before it
// wraps. 66052 single-frame groups (k=1, m=254) at the 2^40 shard
// plausibility cap leave the sum 8*2^40 short of 2^64; the final group's
// shard of (2^43 + 252) / 254 bytes crosses it exactly.
TEST(CorruptChunkedContainer, ParityBytesOverflowRejected) {
  std::vector<std::uint8_t> b;
  auto put_u8 = [&](std::uint8_t v) { b.push_back(v); };
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  constexpr std::uint64_t kFullGroups = 66052;
  constexpr std::uint64_t kGroups = kFullGroups + 1;
  constexpr std::uint64_t kLastShard = ((std::uint64_t{1} << 43) + 252) / 254;
  static_assert(kFullGroups * 254 * (std::uint64_t{1} << 40) +
                        254 * kLastShard ==
                    std::uint64_t{252},  // wrapped: 2^64 + 252
                "forgery must wrap the parity accumulator to 252");
  b.reserve((70u << 20));
  put_u32(0x33435A44u);  // "DZC3"
  put_u8(3);             // version
  put_u8(1);             // rank
  put_u64(kGroups * 8);  // dim0: one 8-value frame per group
  put_u64(8);            // chunk_values
  put_u64(kGroups);      // frame_count
  for (std::uint64_t f = 0; f < kGroups; ++f) {
    put_u64(0);  // offset: all-empty frames are trivially contiguous
    put_u64(0);  // size: frame area is exactly the 252 post-wrap bytes
    put_u32(0);  // crc
  }
  put_u8(1);    // parity_k
  put_u8(254);  // parity_m
  for (std::uint64_t g = 0; g < kFullGroups; ++g) {
    put_u64(std::uint64_t{1} << 40);  // shard size at the cap
    for (int j = 0; j < 254; ++j) put_u32(0);
  }
  put_u64(kLastShard);
  for (int j = 0; j < 254; ++j) put_u32(0);
  put_u32(crc32c(std::span(b.data(), b.size())));  // sealed forgery
  b.resize(b.size() + 252, 0);  // the area the wrapped sum points into

  try {
    (void)chunked_decompress(b);
    FAIL() << "overflowing parity geometry must be rejected";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("parity exceeds the container"),
              std::string::npos);
  }
}

TEST(CorruptChunkedContainer, DamagedParityNeverCorruptsIntactDecode) {
  // The redundancy must be strictly additive: any corruption confined to
  // the parity shard payloads leaves the data decode byte-identical to
  // the pristine container's.
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 4;
  config.parity_m = 2;
  const std::vector<std::uint8_t> valid =
      chunked_compress(wave({4 * 4096}, 19), config);
  const FloatArray reference = chunked_decompress(valid);

  const std::size_t shard = read_u64_at(valid, kV3OffShardSize);
  const std::size_t parity_bytes = 2 * shard;
  const std::size_t parity_begin = valid.size() - parity_bytes;

  Rng rng(20);
  for (int round = 0; round < 32; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    const std::size_t hits = 1 + rng.uniform_index(64);
    for (std::size_t h = 0; h < hits; ++h)
      bytes[parity_begin + rng.uniform_index(parity_bytes)] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    DecodeReport report;
    const FloatArray out = chunked_decompress(bytes, config, &report);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.frames_repaired, 0u);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], reference[i]) << "round " << round;
  }
}

// The same corruptions through the C boundary: status codes instead of
// exceptions, message via dpz_last_error().
TEST(CorruptArchiveCApi, StatusCodesAndMessages) {
  const std::vector<std::uint8_t> valid =
      dpz_compress(wave({48, 64}, 9), DpzConfig::loose());

  struct CApiCase {
    const char* name;
    std::function<void(std::vector<std::uint8_t>&)> corrupt;
    // Whether dpz_inspect-based entry points (shape, is_double) can see
    // the corruption: they parse only the header, so a truncation that
    // leaves the header intact legitimately passes inspection.
    bool header_detectable;
  };
  const std::vector<CApiCase> cases = {
      {"bad-magic", [](auto& b) { b[0] ^= 0xFF; }, true},
      {"truncated", [](auto& b) { b.resize(b.size() / 2); }, false},
      {"bad-version", [](auto& b) { b[kOffVersion] = 77; }, true},
      {"zero-dim", [](auto& b) { write_u64_at(b, kOffDim0, 0); }, true},
  };
  for (const CApiCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> bytes = valid;
    c.corrupt(bytes);

    float* out = nullptr;
    std::size_t count = 0;
    const int rc =
        dpz_decompress_float(bytes.data(), bytes.size(), &out, &count);
    EXPECT_EQ(rc, DPZ_ERR_FORMAT);
    EXPECT_EQ(std::string(dpz_status_name(rc)), "format");
    EXPECT_NE(std::string(dpz_last_error()), "");
    EXPECT_EQ(out, nullptr) << "output must be untouched on error";

    if (c.header_detectable) {
      std::size_t dims[4] = {0, 0, 0, 0};
      std::size_t rank = 0;
      EXPECT_EQ(dpz_archive_shape(bytes.data(), bytes.size(), dims, &rank),
                DPZ_ERR_FORMAT);
      EXPECT_LT(dpz_archive_is_double(bytes.data(), bytes.size()), 0);
    }
  }

  // A flipped payload byte is classified as the checksum refinement of
  // the format error, with its own stable status name.
  {
    std::vector<std::uint8_t> bytes = valid;
    bytes[bytes.size() / 2] ^= 0x01;
    float* out = nullptr;
    std::size_t count = 0;
    const int rc =
        dpz_decompress_float(bytes.data(), bytes.size(), &out, &count);
    EXPECT_EQ(rc, DPZ_ERR_CHECKSUM);
    EXPECT_EQ(std::string(dpz_status_name(rc)), "checksum");
    EXPECT_NE(std::string(dpz_last_error()).find("checksum mismatch"),
              std::string::npos);
    EXPECT_EQ(out, nullptr) << "output must be untouched on error";
  }
  EXPECT_EQ(std::string(dpz_status_name(DPZ_PARTIAL)), "partial");

  // Contract-violation arguments are classified as invalid-argument, not
  // format, and never touch the archive bytes.
  float* out = nullptr;
  std::size_t count = 0;
  EXPECT_EQ(dpz_decompress_float(nullptr, 0, &out, &count),
            DPZ_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(dpz_decompress_float(valid.data(), valid.size(), nullptr,
                                 &count),
            DPZ_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(std::string(dpz_status_name(DPZ_ERR_INVALID_ARGUMENT)),
            "invalid_argument");
  EXPECT_EQ(std::string(dpz_status_name(DPZ_OK)), "ok");
}

}  // namespace
}  // namespace dpz
