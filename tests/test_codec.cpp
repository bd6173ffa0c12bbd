// Unit and property tests for the codec substrate: byte/bit streams,
// zlib, canonical Huffman (incl. Kraft equality), and the DPZ quantizer's
// error-bound contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "codec/bitstream.h"
#include "codec/bytes.h"
#include "codec/huffman.h"
#include "codec/quantizer.h"
#include "codec/zlib_codec.h"
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
