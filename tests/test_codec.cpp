// Unit and property tests for the codec substrate: byte/bit streams,
// zlib (incl. the basis section's plane encoder), canonical Huffman
// (incl. Kraft equality), and the DPZ quantizer's error-bound contract.
#include <gtest/gtest.h>

#define ZLIB_CONST  // next_in is const Bytef*
#include <zlib.h>

#include <cmath>
#include <limits>
#include <thread>

#include "codec/bitstream.h"
#include "codec/bytes.h"
#include "codec/huffman.h"
#include "codec/quantizer.h"
#include "codec/shuffle.h"
#include "codec/zlib_codec.h"
#include "util/resource.h"
#include "util/rng.h"

namespace dpz {
namespace {

// ---- bytes ----------------------------------------------------------------

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_f32(3.5F);
  w.put_f64(-2.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_f32(), 3.5F);
  EXPECT_EQ(r.get_f64(), -2.25);
  EXPECT_EQ(r.remaining(), 0U);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  const auto& b = w.bytes();
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Bytes, FloatBitPatternPreserved) {
  ByteWriter w;
  w.put_f32(std::numeric_limits<float>::quiet_NaN());
  w.put_f32(-0.0F);
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.get_f32()));
  EXPECT_EQ(std::signbit(r.get_f32()), true);
}

TEST(Bytes, BlobRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  w.put_blob(payload);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_blob(), payload);
}

TEST(Bytes, TruncationThrows) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.bytes());
  r.get_u8();
  EXPECT_THROW(r.get_u32(), FormatError);
}

TEST(Bytes, OversizedBlobLengthThrows) {
  ByteWriter w;
  w.put_u64(1ULL << 40);  // blob header promising a petabyte
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_blob(), Error);
}

// ---- bitstream ----------------------------------------------------------------

TEST(BitStream, SingleBits) {
  BitWriter w;
  const std::vector<unsigned> bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (const unsigned b : bits) w.put_bit(b);
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const unsigned b : bits) EXPECT_EQ(r.get_bit(), b);
}

TEST(BitStream, MultiBitFields) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0xFFFF, 16);
  w.put_bits(0, 5);
  w.put_bits(0x123456789ULL, 36);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0b101U);
  EXPECT_EQ(r.get_bits(16), 0xFFFFU);
  EXPECT_EQ(r.get_bits(5), 0U);
  EXPECT_EQ(r.get_bits(36), 0x123456789ULL);
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter w;
  w.put_bits(0b11, 2);
  const auto bytes = w.take();
  BitReader r(bytes);
  r.get_bits(8);  // padding bits readable within the final byte
  EXPECT_THROW(r.get_bit(), FormatError);
}

TEST(BitStream, RandomRoundTrip) {
  Rng rng(1);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 1000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.uniform_index(64));
    const std::uint64_t value =
        width == 64 ? rng.next_u64() : rng.next_u64() & ((1ULL << width) - 1);
    fields.emplace_back(value, width);
    w.put_bits(value, width);
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto& [value, width] : fields)
    EXPECT_EQ(r.get_bits(width), value);
}

// ---- zlib ----------------------------------------------------------------

TEST(Zlib, RoundTrip) {
  Rng rng(2);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data)
    b = static_cast<std::uint8_t>(rng.uniform_index(16));  // compressible
  const auto z = zlib_compress(data);
  EXPECT_LT(z.size(), data.size());
  EXPECT_EQ(zlib_decompress(z, data.size()), data);
}

TEST(Zlib, EmptyInput) {
  const auto z = zlib_compress({});
  EXPECT_TRUE(zlib_decompress(z, 0).empty());
}

TEST(Zlib, WrongExpectedSizeThrows) {
  const std::vector<std::uint8_t> data{1, 2, 3};
  const auto z = zlib_compress(data);
  EXPECT_THROW(zlib_decompress(z, 2), FormatError);
}

TEST(Zlib, CorruptedStreamThrows) {
  std::vector<std::uint8_t> data(100, 42);
  auto z = zlib_compress(data);
  z[z.size() / 2] ^= 0xFF;
  EXPECT_THROW(zlib_decompress(z, data.size()), FormatError);
}

TEST(Zlib, LevelBoundsChecked) {
  const std::vector<std::uint8_t> data{1};
  EXPECT_THROW(zlib_compress(data, 0), InvalidArgument);
  EXPECT_THROW(zlib_compress(data, 10), InvalidArgument);
}

// ---- zlib by byte plane (the basis section) -------------------------------

enum class PlaneFill {
  kZero,
  kConstantExponent,
  kRandom,
  kBasis,
  kPeriodicExponent,  ///< exponents repeat with period 7: LZ beats RLE
};

// A section as put_section sees it: `prefix` f64-like bytes, then `plane`
// f32 values byte-shuffled into four planes.
std::vector<std::uint8_t> plane_section(std::size_t prefix, std::size_t plane,
                                        PlaneFill fill, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(prefix);
  for (auto& b : data)
    b = fill == PlaneFill::kZero
            ? 0
            : static_cast<std::uint8_t>(rng.uniform_index(256));
  ByteWriter floats;
  for (std::size_t i = 0; i < plane; ++i) {
    switch (fill) {
      case PlaneFill::kZero:
        floats.put_f32(0.0F);
        break;
      case PlaneFill::kConstantExponent:  // [1, 2): one sign and exponent
        floats.put_f32(static_cast<float>(1.0 + rng.uniform(0.0, 0.999)));
        break;
      case PlaneFill::kRandom:
        floats.put_u32(static_cast<std::uint32_t>(rng.next_u64()));
        break;
      case PlaneFill::kBasis:  // orthonormal-column-sized entries
        floats.put_f32(static_cast<float>(rng.normal(0.0, 0.05)));
        break;
      case PlaneFill::kPeriodicExponent:
        floats.put_f32(std::ldexp(
            static_cast<float>(1.0 + rng.uniform(0.0, 0.999)),
            static_cast<int>(i % 7) * 5 - 15));
        break;
    }
  }
  const std::vector<std::uint8_t> planes =
      shuffle_bytes(floats.bytes(), sizeof(float));
  data.insert(data.end(), planes.begin(), planes.end());
  return data;
}

// The plane rule with the exponent plane fixed to one strategy, written
// straight against zlib: the candidates zlib_compress_planes picks from.
std::vector<std::uint8_t> one_strategy_encode(
    std::span<const std::uint8_t> data, std::size_t prefix, int level,
    int exponent_level, int exponent_strategy) {
  const std::size_t plane = (data.size() - prefix) / 4;
  std::vector<std::uint8_t> out(compressBound(data.size()) + 64);
  z_stream z{};
  EXPECT_EQ(deflateInit(&z, level), Z_OK);
  z.next_out = out.data();
  z.avail_out = static_cast<uInt>(out.size());
  const auto feed = [&](std::size_t at, std::size_t n, int flush) {
    z.next_in = data.data() + at;
    z.avail_in = static_cast<uInt>(n);
    return deflate(&z, flush);
  };
  if (prefix != 0) {
    EXPECT_EQ(feed(0, prefix, Z_NO_FLUSH), Z_OK);
  }
  EXPECT_EQ(deflateParams(&z, level, Z_HUFFMAN_ONLY), Z_OK);
  EXPECT_EQ(feed(prefix, 3 * plane, Z_BLOCK), Z_OK);
  EXPECT_EQ(deflateParams(&z, exponent_level, exponent_strategy), Z_OK);
  EXPECT_EQ(feed(prefix + 3 * plane, plane, Z_FINISH), Z_STREAM_END);
  out.resize(z.total_out);
  deflateEnd(&z);
  return out;
}

TEST(ZlibPlanes, NoPlaneBytesIsZlibCompress) {
  EXPECT_EQ(zlib_compress_planes({}, 0), zlib_compress({}));
  const std::vector<std::uint8_t> prefix_only =
      plane_section(1000, 0, PlaneFill::kRandom, 1);
  for (const int level : {1, 6, 9})
    EXPECT_EQ(zlib_compress_planes(prefix_only, prefix_only.size(), level),
              zlib_compress(prefix_only, level));
}

TEST(ZlibPlanes, RoundTripsThroughZlibDecompress) {
  for (const PlaneFill fill :
       {PlaneFill::kZero, PlaneFill::kConstantExponent, PlaneFill::kRandom,
        PlaneFill::kBasis, PlaneFill::kPeriodicExponent})
    for (const std::size_t prefix : {std::size_t{0}, std::size_t{1032}})
      for (const std::size_t plane : {1, 1000, 4096, 20000, 70000}) {
        const std::vector<std::uint8_t> data =
            plane_section(prefix, plane, fill, plane + prefix);
        for (const int level : {1, 6}) {
          const std::vector<std::uint8_t> z =
              zlib_compress_planes(data, prefix, level);
          EXPECT_EQ(zlib_decompress(z, data.size()), data)
              << "fill " << static_cast<int>(fill) << " prefix " << prefix
              << " plane " << plane << " level " << level;
        }
      }
}

TEST(ZlibPlanes, NeverLargerThanEitherExponentStrategy) {
  std::size_t lz_wins = 0;
  std::size_t rle_wins = 0;
  for (const PlaneFill fill :
       {PlaneFill::kZero, PlaneFill::kConstantExponent, PlaneFill::kRandom,
        PlaneFill::kBasis, PlaneFill::kPeriodicExponent})
    for (const std::size_t plane : {4096, 20000, 70000}) {
      const std::vector<std::uint8_t> data =
          plane_section(1032, plane, fill, plane);
      const std::vector<std::uint8_t> z = zlib_compress_planes(data, 1032, 6);
      const std::vector<std::uint8_t> rle =
          one_strategy_encode(data, 1032, 6, 6, Z_RLE);
      const std::vector<std::uint8_t> lz =
          one_strategy_encode(data, 1032, 6, 4, Z_DEFAULT_STRATEGY);
      EXPECT_LE(z.size(), rle.size());
      EXPECT_LE(z.size(), lz.size());
      // The smaller candidate, a tie going to run-length.
      EXPECT_EQ(z, lz.size() < rle.size() ? lz : rle)
          << "fill " << static_cast<int>(fill) << " plane " << plane;
      ++(lz.size() < rle.size() ? lz_wins : rle_wins);
    }
  // The inputs exercise both outcomes of the choice.
  EXPECT_GT(lz_wins, 0U);
  EXPECT_GT(rle_wins, 0U);
}

TEST(ZlibPlanes, SmallExponentPlaneGoesStraightToLz) {
  // Below 4096 plane bytes the second stream state is not worth its copy.
  for (const std::size_t plane : {1, 1000, 4095}) {
    const std::vector<std::uint8_t> data =
        plane_section(1032, plane, PlaneFill::kBasis, plane);
    EXPECT_EQ(zlib_compress_planes(data, 1032, 6),
              one_strategy_encode(data, 1032, 6, 4, Z_DEFAULT_STRATEGY));
    EXPECT_EQ(zlib_compress_planes(data, 1032, 2),
              one_strategy_encode(data, 1032, 2, 2, Z_DEFAULT_STRATEGY));
  }
}

TEST(ZlibPlanes, RejectsPartialValuesAndBadLevels) {
  const std::vector<std::uint8_t> data(10, 1);
  EXPECT_THROW(zlib_compress_planes(data, 4), InvalidArgument);
  EXPECT_THROW(zlib_compress_planes(data, 11), InvalidArgument);
  EXPECT_THROW(zlib_compress_planes(data, 2, 0), InvalidArgument);
  EXPECT_THROW(zlib_compress_planes(data, 2, 10), InvalidArgument);
}

TEST(ZlibPlanes, SameBytesFromConcurrentThreads) {
  const std::vector<std::uint8_t> data =
      plane_section(1032, 20000, PlaneFill::kBasis, 7);
  const std::vector<std::uint8_t> expected =
      zlib_compress_planes(data, 1032);
  std::vector<std::vector<std::uint8_t>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep)
        got[t] = zlib_compress_planes(data, 1032);
    });
  for (std::thread& t : threads) t.join();
  for (const auto& z : got) EXPECT_EQ(z, expected);
}

TEST(ZlibPlanes, BudgetForOneCandidateThrowsBeforeTheSecond) {
  constexpr std::size_t kPrefix = 1032;
  constexpr std::size_t kPlane = 8192;
  const std::vector<std::uint8_t> data =
      plane_section(kPrefix, kPlane, PlaneFill::kBasis, 8);
  // The stream's output buffer, then the LZ candidate: its exponent plane
  // and the deflate state deflateCopy makes for it (zconf.h's figure for
  // windowBits 15, memLevel 8). The stream's own zlib state is not
  // charged, as compress2's is not.
  const std::uint64_t out_bound =
      compressBound(kPrefix) + 4 * compressBound(kPlane);
  const std::uint64_t lz_bound =
      compressBound(kPlane) + (1U << (MAX_WBITS + 2)) + (1U << (8 + 9));
  {
    ResourceLimits limits;
    limits.max_memory_bytes = out_bound + lz_bound - 1;
    const GovernorScope scope(limits);
    EXPECT_THROW(zlib_compress_planes(data, kPrefix), ResourceExhausted);
    EXPECT_LE(current_governor()->arena().peak(), limits.max_memory_bytes);
    EXPECT_EQ(current_governor()->arena().in_use(), 0U);
  }
  ResourceLimits limits;
  limits.max_memory_bytes = out_bound + lz_bound;
  const GovernorScope scope(limits);
  EXPECT_EQ(zlib_decompress(zlib_compress_planes(data, kPrefix), data.size()),
            data);
  EXPECT_EQ(current_governor()->arena().peak(), out_bound + lz_bound);
}

// ---- Huffman ----------------------------------------------------------------

TEST(Huffman, RoundTripSkewedDistribution) {
  Rng rng(3);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols) {
    const double u = rng.uniform();
    s = u < 0.7 ? 0 : (u < 0.9 ? 1 : static_cast<std::uint32_t>(
                                         rng.uniform_index(100)));
  }
  const auto encoded = huffman_encode(symbols, 100);
  EXPECT_EQ(huffman_decode(encoded), symbols);
  // Skewed distribution: clearly below 1 byte/symbol even with the table.
  EXPECT_LT(encoded.size(), symbols.size());
}

TEST(Huffman, SingleDistinctSymbol) {
  const std::vector<std::uint32_t> symbols(100, 7);
  const auto encoded = huffman_encode(symbols, 16);
  EXPECT_EQ(huffman_decode(encoded), symbols);
}

TEST(Huffman, EmptyInput) {
  const std::vector<std::uint32_t> symbols;
  const auto encoded = huffman_encode(symbols, 4);
  EXPECT_TRUE(huffman_decode(encoded).empty());
}

TEST(Huffman, SymbolOutsideAlphabetRejected) {
  const std::vector<std::uint32_t> symbols{5};
  EXPECT_THROW(huffman_encode(symbols, 5), InvalidArgument);
}

TEST(Huffman, KraftEqualityForFullTrees) {
  std::vector<std::uint64_t> counts{10, 7, 3, 3, 1, 1};
  const auto lengths = huffman_code_lengths(counts);
  double kraft = 0.0;
  for (const auto len : lengths)
    if (len != 0) kraft += std::ldexp(1.0, -static_cast<int>(len));
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> counts{1000, 100, 10, 1};
  const auto lengths = huffman_code_lengths(counts);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(Huffman, NearOptimalOnUniformData) {
  Rng rng(4);
  std::vector<std::uint32_t> symbols(8192);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(rng.uniform_index(256));
  const auto encoded = huffman_encode(symbols, 256);
  // Uniform over 256 symbols: ~8 bits each; allow table + slack.
  EXPECT_LT(encoded.size(), symbols.size() + 1024);
  EXPECT_EQ(huffman_decode(encoded), symbols);
}

TEST(Huffman, TruncatedStreamThrows) {
  const std::vector<std::uint32_t> symbols(100, 3);
  auto encoded = huffman_encode(symbols, 8);
  encoded.resize(encoded.size() / 2);
  EXPECT_THROW(huffman_decode(encoded), FormatError);
}

// ---- quantizer ----------------------------------------------------------------

class QuantizerSchemeTest : public ::testing::TestWithParam<bool> {};

TEST_P(QuantizerSchemeTest, InRangeErrorBounded) {
  QuantizerConfig cfg;
  cfg.wide_codes = GetParam();
  cfg.error_bound = cfg.wide_codes ? 1e-4 : 1e-3;

  Rng rng(5);
  std::vector<double> values(5000);
  const double half = cfg.half_range();
  for (double& v : values) v = rng.uniform(-half, half);

  const QuantizedStream qs = quantize(values, cfg);
  EXPECT_TRUE(qs.outliers.empty());
  std::vector<double> back(values.size());
  dequantize(qs, cfg, back);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_LE(std::abs(back[i] - values[i]), cfg.error_bound + 1e-15)
        << "index " << i;
}

TEST_P(QuantizerSchemeTest, OutOfRangeStoredVerbatim) {
  QuantizerConfig cfg;
  cfg.wide_codes = GetParam();
  cfg.error_bound = 1e-3;
  const double half = cfg.half_range();

  const std::vector<double> values{0.0, half * 2.0, -half * 3.0, 0.5 * half};
  const QuantizedStream qs = quantize(values, cfg);
  EXPECT_EQ(qs.outliers.size(), 2U);
  std::vector<double> back(values.size());
  dequantize(qs, cfg, back);
  // Outliers keep full double precision inside the stream (the archive
  // serializer casts them to the input's element width).
  EXPECT_EQ(back[1], half * 2.0);
  EXPECT_EQ(back[2], -half * 3.0);
  EXPECT_LE(std::abs(back[3] - values[3]), cfg.error_bound);
}

TEST_P(QuantizerSchemeTest, CodeBytesMatchScheme) {
  QuantizerConfig cfg;
  cfg.wide_codes = GetParam();
  const std::vector<double> values(100, 0.0);
  const QuantizedStream qs = quantize(values, cfg);
  EXPECT_EQ(qs.codes.size(), values.size() * cfg.code_bytes());
}

TEST_P(QuantizerSchemeTest, KeepPrefixMatchesTheFullDecodesLeadingValues) {
  // The quantizer works in 64 Ki-value strips; the stream spans more
  // than two and puts escapes on both sides of each strip boundary, so a
  // prefix cut near a boundary must keep exactly the outliers before it.
  constexpr std::size_t kStrip = std::size_t{1} << 16;
  QuantizerConfig cfg;
  cfg.wide_codes = GetParam();
  cfg.error_bound = 1e-3;
  const double half = cfg.half_range();
  Rng rng(17);
  std::vector<double> values(2 * kStrip + 4321);
  for (double& v : values) v = rng.uniform(-half, half);
  for (const std::size_t i : {std::size_t{0}, kStrip - 2, kStrip - 1, kStrip,
                              kStrip + 1, 2 * kStrip - 1, 2 * kStrip,
                              values.size() - 1})
    values[i] = (i % 2 == 0 ? 3.0 : -2.0) * half;

  const QuantizedStream full = quantize(values, cfg);
  ASSERT_EQ(full.outliers.size(), 8U);
  std::vector<double> full_back(values.size());
  dequantize(full, cfg, full_back);

  for (const std::size_t count : {std::size_t{1}, kStrip - 1, kStrip,
                                  kStrip + 1, values.size()}) {
    SCOPED_TRACE("prefix " + std::to_string(count));
    QuantizedStream prefix = full;
    keep_prefix(prefix, cfg, count);
    EXPECT_EQ(prefix.count, count);
    EXPECT_EQ(prefix.codes.size(), count * cfg.code_bytes());
    std::vector<double> back(count);
    dequantize(prefix, cfg, back);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(back[i], full_back[i]) << "index " << i;
  }

  // A prefix holding more escapes than the stream has outliers is a
  // damaged stream, not a precondition breach.
  QuantizedStream short_outliers = full;
  short_outliers.outliers.resize(2);
  EXPECT_THROW(keep_prefix(short_outliers, cfg, kStrip + 1), FormatError);
}

INSTANTIATE_TEST_SUITE_P(NarrowAndWide, QuantizerSchemeTest,
                         ::testing::Values(false, true));

TEST(Quantizer, BoundaryValuesStayInRange) {
  QuantizerConfig cfg;
  cfg.error_bound = 1e-3;
  const double half = cfg.half_range();
  const std::vector<double> values{-half, half, 0.0,
                                   std::nextafter(half, 0.0)};
  const QuantizedStream qs = quantize(values, cfg);
  EXPECT_TRUE(qs.outliers.empty());
  std::vector<double> back(values.size());
  dequantize(qs, cfg, back);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_LE(std::abs(back[i] - values[i]), cfg.error_bound + 1e-15);
}

TEST(Quantizer, NanRoutesToOutliers) {
  QuantizerConfig cfg;
  const std::vector<double> values{std::nan(""), 0.0};
  const QuantizedStream qs = quantize(values, cfg);
  EXPECT_EQ(qs.outliers.size(), 1U);
  std::vector<double> back(2);
  dequantize(qs, cfg, back);
  EXPECT_TRUE(std::isnan(back[0]));
}

TEST(Quantizer, SymmetryAroundZero) {
  QuantizerConfig cfg;
  cfg.error_bound = 1e-3;
  const std::vector<double> values{0.0417, -0.0417};
  const QuantizedStream qs = quantize(values, cfg);
  std::vector<double> back(2);
  dequantize(qs, cfg, back);
  EXPECT_NEAR(back[0], -back[1], 1e-12);
}

TEST(Quantizer, RejectsNonPositiveBound) {
  QuantizerConfig cfg;
  cfg.error_bound = 0.0;
  const std::vector<double> values{1.0};
  EXPECT_THROW(quantize(values, cfg), InvalidArgument);
}

TEST(Quantizer, DequantizeValidatesSizes) {
  QuantizerConfig cfg;
  const std::vector<double> values{0.0, 0.0};
  const QuantizedStream qs = quantize(values, cfg);
  std::vector<double> wrong(3);
  EXPECT_THROW(dequantize(qs, cfg, wrong), InvalidArgument);
}

TEST(Quantizer, MissingOutlierDetected) {
  QuantizerConfig cfg;
  cfg.error_bound = 1e-3;
  const std::vector<double> values{cfg.half_range() * 5.0};
  QuantizedStream qs = quantize(values, cfg);
  qs.outliers.clear();
  std::vector<double> back(1);
  EXPECT_THROW(dequantize(qs, cfg, back), FormatError);
}

}  // namespace
}  // namespace dpz
