// Tests for the chunked container: round-trips across chunk sizes, tail
// handling, random frame access, per-frame isolation of corruption, and
// header validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/chunked.h"
#include "core/verify.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace dpz {
namespace {

FloatArray long_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  FloatArray a({n});
  for (std::size_t i = 0; i < n; ++i)
    a[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.003) +
                              0.3 * std::cos(static_cast<double>(i) * 0.011) +
                              0.002 * rng.normal());
  return a;
}

class ChunkSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkSizeTest, RoundTripsAtEveryChunkSize) {
  const FloatArray data = long_signal(50000, 1);
  ChunkedConfig config;
  config.chunk_values = GetParam();
  config.dpz = DpzConfig::strict();
  config.dpz.tve = 0.9999;

  ChunkedStats stats;
  const auto container = chunked_compress(data, config, &stats);
  EXPECT_EQ(stats.frame_count,
            chunked_frame_count(container));
  const FloatArray back = chunked_decompress(container);
  ASSERT_EQ(back.shape(), data.shape());
  EXPECT_GT(compute_error_stats(data.flat(), back.flat()).psnr_db, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeTest,
                         ::testing::Values(4096, 10000, 16384, 49999,
                                           1 << 20));

TEST(Chunked, TailSmallerThanMinimumMergesIntoLastChunk) {
  // 50000 = 6*8192 + 848 tail (fine), but 8197: 8192 + 5 -> the 5-value
  // tail must merge into the previous frame rather than form its own.
  const FloatArray data = long_signal(8197, 2);
  ChunkedConfig config;
  config.chunk_values = 8192;
  ChunkedStats stats;
  const auto container = chunked_compress(data, config, &stats);
  EXPECT_EQ(stats.frame_count, 1U);
  const FloatArray back = chunked_decompress(container);
  EXPECT_EQ(back.size(), data.size());
}

TEST(Chunked, MultidimensionalShapeSurvives) {
  Rng rng(3);
  FloatArray data({40, 50, 30});
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.01));
  ChunkedConfig config;
  config.chunk_values = 16384;
  const auto container = chunked_compress(data, config);
  const FloatArray back = chunked_decompress(container);
  EXPECT_EQ(back.shape(), data.shape());
}

TEST(Chunked, RandomFrameAccessMatchesFullDecode) {
  const FloatArray data = long_signal(60000, 4);
  ChunkedConfig config;
  config.chunk_values = 16384;
  const auto container = chunked_compress(data, config);
  const FloatArray full = chunked_decompress(container);

  const std::size_t frames = chunked_frame_count(container);
  ASSERT_GE(frames, 3U);
  for (std::size_t f = 0; f < frames; ++f) {
    const ChunkView view = chunked_decompress_frame(container, f);
    EXPECT_EQ(view.value_offset, f * config.chunk_values);
    for (std::size_t i = 0; i < view.values.size(); ++i)
      EXPECT_EQ(view.values[i], full[view.value_offset + i])
          << "frame " << f << " value " << i;
  }
}

TEST(Chunked, FrameIndexOutOfRangeRejected) {
  const FloatArray data = long_signal(20000, 5);
  ChunkedConfig config;
  config.chunk_values = 8192;
  const auto container = chunked_compress(data, config);
  const std::size_t frames = chunked_frame_count(container);
  EXPECT_THROW(chunked_decompress_frame(container, frames),
               InvalidArgument);
}

TEST(Chunked, CorruptionIsContainedToOneFrame) {
  const FloatArray data = long_signal(60000, 6);
  ChunkedConfig config;
  config.chunk_values = 16384;
  auto container = chunked_compress(data, config);

  // Flip a byte deep inside the last frame's payload.
  container[container.size() - 16] ^= 0xFF;
  const std::size_t frames = chunked_frame_count(container);
  // Earlier frames still decode.
  EXPECT_NO_THROW(chunked_decompress_frame(container, 0));
  EXPECT_NO_THROW(chunked_decompress_frame(container, 1));
  // The damaged frame (and hence the full decode) fails loudly.
  EXPECT_THROW(chunked_decompress_frame(container, frames - 1), Error);
  EXPECT_THROW(chunked_decompress(container), Error);
}

TEST(Chunked, BestEffortRecoversEveryIntactFrame) {
  const FloatArray data = long_signal(60000, 9);
  ChunkedConfig config;
  config.chunk_values = 16384;
  auto container = chunked_compress(data, config);
  const FloatArray reference = chunked_decompress(container);
  const std::size_t frames = chunked_frame_count(container);
  ASSERT_GE(frames, 3U);

  container[container.size() - 16] ^= 0xFF;  // damage the last frame

  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  best.fill_value = 42.0F;
  DecodeReport report;
  const FloatArray out = chunked_decompress(container, best, &report);

  EXPECT_EQ(report.frames_total, frames);
  EXPECT_EQ(report.frames_recovered, frames - 1);
  ASSERT_EQ(report.lost.size(), 1U);
  EXPECT_EQ(report.lost[0].frame, frames - 1);
  EXPECT_FALSE(report.complete());
  EXPECT_NE(report.lost[0].message.find("checksum"), std::string::npos);

  // 100% of the uncorrupted frames must come back byte-exact; the lost
  // tail must be wall-to-wall fill.
  const std::size_t lost_begin = (frames - 1) * config.chunk_values;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < lost_begin) {
      ASSERT_EQ(out[i], reference[i]) << "intact value altered at " << i;
    } else {
      ASSERT_EQ(out[i], 42.0F) << "lost frame not filled at " << i;
    }
  }
}

TEST(Chunked, BestEffortOnIntactContainerIsCompleteAndExact) {
  const FloatArray data = long_signal(40000, 10);
  ChunkedConfig config;
  config.chunk_values = 10000;
  const auto container = chunked_compress(data, config);
  const FloatArray reference = chunked_decompress(container);

  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  DecodeReport report;
  const FloatArray out = chunked_decompress(container, best, &report);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.frames_recovered, report.frames_total);
  EXPECT_TRUE(report.lost.empty());
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], reference[i]);
}

TEST(Chunked, BestEffortCannotSurviveHeaderDamage) {
  // Best effort isolates FRAME damage; the sealed header is the recovery
  // map, so header corruption still fails the whole decode.
  const FloatArray data = long_signal(30000, 11);
  ChunkedConfig config;
  config.chunk_values = 10000;
  auto container = chunked_compress(data, config);
  container[8] ^= 0x01;  // inside dim0, under the header seal

  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  EXPECT_THROW(chunked_decompress(container, best, nullptr), FormatError);
}

TEST(Chunked, BestEffortStrictPolicyMatchesLegacyOverload) {
  // The config overload with kStrict must behave exactly like the
  // original entry point, including the report on success.
  const FloatArray data = long_signal(30000, 12);
  ChunkedConfig config;
  config.chunk_values = 10000;
  const auto container = chunked_compress(data, config);
  DecodeReport report;
  const FloatArray a = chunked_decompress(container, config, &report);
  const FloatArray b = chunked_decompress(container);
  EXPECT_TRUE(report.complete());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);

  auto damaged = container;
  damaged[damaged.size() - 10] ^= 0x04;
  EXPECT_THROW(chunked_decompress(damaged, config, nullptr),
               ChecksumError);
}

// The parser rejects chunk_values above 2^40 (layout's kMaxElements), so
// the writer does too, before the frame-count arithmetic can wrap.
TEST(Chunked, ChunkSizeAboveTheParserCapRejected) {
  const FloatArray data = long_signal(4096, 12);
  ChunkedConfig config;
  for (const std::size_t chunk :
       {(std::size_t{1} << 40) + 1, SIZE_MAX - 4}) {
    config.chunk_values = chunk;
    EXPECT_THROW((void)chunked_compress(data, config), InvalidArgument)
        << chunk;
  }
  config.chunk_values = std::size_t{1} << 40;
  const auto container = chunked_compress(data, config);
  EXPECT_EQ(chunked_frame_count(container), 1U);
  EXPECT_EQ(chunked_decompress(container).size(), data.size());
}

TEST(Chunked, GarbageContainerRejected) {
  const std::vector<std::uint8_t> garbage(128, 0x42);
  EXPECT_THROW(chunked_decompress(garbage), FormatError);
  EXPECT_THROW(chunked_frame_count(garbage), FormatError);
}

TEST(Chunked, StatsAccounting) {
  const FloatArray data = long_signal(40000, 7);
  ChunkedConfig config;
  config.chunk_values = 10000;
  ChunkedStats stats;
  const auto container = chunked_compress(data, config, &stats);
  EXPECT_EQ(stats.original_bytes, data.size() * 4);
  EXPECT_EQ(stats.archive_bytes, container.size());
  EXPECT_EQ(stats.frame_count, 4U);
  EXPECT_GT(stats.cr(), 1.0);
}

// ---- DZC3 parity ----------------------------------------------------

// Locates frame f's byte extent via the verify section table, so the
// tests damage exactly the frame they claim to.
std::pair<std::size_t, std::size_t> frame_extent(
    const std::vector<std::uint8_t>& container, std::size_t f) {
  const VerifyReport rep = verify_archive(container);
  const std::string name = "frame[" + std::to_string(f) + "]";
  for (const SectionStatus& s : rep.sections)
    if (s.name == name)
      return {static_cast<std::size_t>(s.offset),
              static_cast<std::size_t>(s.size)};
  ADD_FAILURE() << "no section " << name;
  return {0, 0};
}

void damage_frame(std::vector<std::uint8_t>& container, std::size_t f) {
  const auto [offset, size] = frame_extent(container, f);
  for (std::size_t i = 0; i < std::min<std::size_t>(size, 24); ++i)
    container[offset + size / 2 - i] ^= 0xA5;
}

ChunkedConfig parity_config(unsigned k, unsigned m) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = k;
  config.parity_m = m;
  return config;
}

TEST(ChunkedParity, ParityContainerDecodesLikeParityLess) {
  const FloatArray data = long_signal(60000, 20);
  ChunkedConfig plain;
  plain.chunk_values = 4096;
  const auto without = chunked_compress(data, plain);
  const auto with = chunked_compress(data, parity_config(4, 2));

  EXPECT_GT(with.size(), without.size());  // parity costs bytes
  const ParityInfo info = chunked_parity_info(with);
  EXPECT_TRUE(info.enabled());
  EXPECT_EQ(info.parity_k, 4u);
  EXPECT_EQ(info.parity_m, 2u);
  EXPECT_EQ(info.groups,
            (chunked_frame_count(with) + 3) / 4);
  EXPECT_FALSE(chunked_parity_info(without).enabled());

  const FloatArray a = chunked_decompress(without);
  const FloatArray b = chunked_decompress(with);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(ChunkedParity, StrictDecodeRepairsDamageWithinBudget) {
  const FloatArray data = long_signal(60000, 21);
  auto container = chunked_compress(data, parity_config(4, 2));
  const FloatArray reference = chunked_decompress(container);

  damage_frame(container, 1);
  damage_frame(container, 2);  // two losses in group 0, m = 2

  DecodeReport report;
  const FloatArray out =
      chunked_decompress(container, parity_config(4, 2), &report);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.frames_repaired, 2u);
  EXPECT_EQ(report.repaired, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(report.frames_recovered, report.frames_total);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], reference[i]) << "repair not byte-exact at " << i;
}

TEST(ChunkedParity, StrictDecodeBeyondBudgetThrows) {
  const FloatArray data = long_signal(60000, 22);
  auto container = chunked_compress(data, parity_config(4, 1));
  damage_frame(container, 0);
  damage_frame(container, 3);  // two losses in group 0, m = 1
  try {
    chunked_decompress(container, parity_config(4, 1), nullptr);
    FAIL() << "strict decode of unrecoverable damage must throw";
  } catch (const ChecksumError& e) {
    EXPECT_NE(std::string(e.what()).find("beyond the parity budget"),
              std::string::npos);
  }
}

TEST(ChunkedParity, RandomAccessRepairsDamagedFrame) {
  const FloatArray data = long_signal(60000, 30);
  auto container = chunked_compress(data, parity_config(4, 2));
  const ChunkView reference = chunked_decompress_frame(container, 2);

  damage_frame(container, 1);
  damage_frame(container, 2);  // two losses in group 0, m = 2
  const ChunkView repaired = chunked_decompress_frame(container, 2);
  EXPECT_EQ(repaired.value_offset, reference.value_offset);
  ASSERT_EQ(repaired.values.size(), reference.values.size());
  for (std::size_t i = 0; i < repaired.values.size(); ++i)
    ASSERT_EQ(repaired.values[i], reference.values[i])
        << "random-access repair not byte-exact at " << i;

  damage_frame(container, 0);  // third loss in group 0 exceeds m = 2
  try {
    chunked_decompress_frame(container, 2);
    FAIL() << "random access beyond the parity budget must throw";
  } catch (const ChecksumError& e) {
    EXPECT_NE(std::string(e.what()).find("beyond the parity budget"),
              std::string::npos);
  }
  // A frame in an undamaged group is untouched by group 0's losses.
  EXPECT_NO_THROW(chunked_decompress_frame(container, 5));
}

TEST(ChunkedParity, BestEffortRepairsOneGroupFillsAnother) {
  const FloatArray data = long_signal(60000, 23);
  auto container = chunked_compress(data, parity_config(4, 1));
  const FloatArray reference = chunked_decompress(container);
  const std::size_t frames = chunked_frame_count(container);
  ASSERT_GE(frames, 8u);

  damage_frame(container, 0);
  damage_frame(container, 1);  // group 0: beyond its m = 1 budget
  damage_frame(container, 5);  // group 1: within budget

  ChunkedConfig best = parity_config(4, 1);
  best.decode_policy = DecodePolicy::kBestEffort;
  best.fill_value = 7.0;
  DecodeReport report;
  const FloatArray out = chunked_decompress(container, best, &report);

  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.frames_repaired, 1u);
  EXPECT_EQ(report.repaired, (std::vector<std::size_t>{5}));
  ASSERT_EQ(report.lost.size(), 2u);
  EXPECT_EQ(report.lost[0].frame, 0u);
  EXPECT_EQ(report.lost[1].frame, 1u);
  EXPECT_EQ(report.frames_recovered, frames - 2);

  const std::size_t chunk = 4096;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < 2 * chunk) {
      ASSERT_EQ(out[i], 7.0F) << "lost frame not filled at " << i;
    } else {
      ASSERT_EQ(out[i], reference[i]) << "value altered at " << i;
    }
  }
}

TEST(ChunkedParity, RepairRewritesByteIdentical) {
  const FloatArray data = long_signal(60000, 24);
  const auto pristine = chunked_compress(data, parity_config(4, 2));

  auto damaged = pristine;
  damage_frame(damaged, 4);
  damage_frame(damaged, 6);
  ASSERT_NE(damaged, pristine);

  RepairReport report;
  const auto healed = chunked_repair(damaged, &report);
  EXPECT_EQ(healed, pristine);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.frames_repaired, (std::vector<std::size_t>{4, 6}));
  EXPECT_EQ(report.parity_shards_repaired, 0u);
}

TEST(ChunkedParity, RepairOfIntactContainerIsIdentityAndClean) {
  const FloatArray data = long_signal(30000, 25);
  const auto pristine = chunked_compress(data, parity_config(4, 1));
  RepairReport report;
  EXPECT_EQ(chunked_repair(pristine, &report), pristine);
  EXPECT_TRUE(report.clean());
}

TEST(ChunkedParity, RepairHealsDamagedParityShards) {
  const FloatArray data = long_signal(60000, 26);
  const auto pristine = chunked_compress(data, parity_config(4, 2));
  const ParityInfo info = chunked_parity_info(pristine);

  // Corrupt parity bytes only (the trailing parity area).
  auto damaged = pristine;
  for (std::size_t i = 1; i <= 32; ++i)
    damaged[damaged.size() - i] ^= 0x5C;

  // Damaged redundancy must never poison an intact decode.
  const FloatArray reference = chunked_decompress(pristine);
  DecodeReport report;
  const FloatArray out =
      chunked_decompress(damaged, parity_config(4, 2), &report);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.frames_repaired, 0u);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], reference[i]);

  RepairReport rrep;
  const auto healed = chunked_repair(damaged, &rrep);
  EXPECT_EQ(healed, pristine);
  EXPECT_TRUE(rrep.frames_repaired.empty());
  EXPECT_GE(rrep.parity_shards_repaired, 1u);
  (void)info;
}

TEST(ChunkedParity, ScrubJudgesWithoutDecoding) {
  const FloatArray data = long_signal(60000, 27);
  const auto pristine = chunked_compress(data, parity_config(4, 2));

  const ScrubReport clean = chunked_scrub(pristine);
  EXPECT_TRUE(clean.ok());
  EXPECT_EQ(clean.parity_k, 4u);
  EXPECT_EQ(clean.parity_m, 2u);
  EXPECT_EQ(clean.frames_damaged, 0u);
  EXPECT_EQ(clean.parity_mismatches, 0u);

  auto frame_damage = pristine;
  damage_frame(frame_damage, 2);
  const ScrubReport fd = chunked_scrub(frame_damage);
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.frames_damaged, 1u);

  auto parity_damage = pristine;
  parity_damage[parity_damage.size() - 8] ^= 0xFF;
  const ScrubReport pd = chunked_scrub(parity_damage);
  EXPECT_FALSE(pd.ok());
  EXPECT_GE(pd.parity_shards_damaged, 1u);

  const ScrubReport plain =
      chunked_scrub(chunked_compress(data, ChunkedConfig{}));
  EXPECT_TRUE(plain.ok());
  EXPECT_EQ(plain.parity_m, 0u);
}

TEST(ChunkedParity, ParityLessRepairOfDamageThrows) {
  const FloatArray data = long_signal(30000, 28);
  ChunkedConfig plain;
  plain.chunk_values = 8192;
  auto container = chunked_compress(data, plain);
  damage_frame(container, 0);
  EXPECT_THROW(chunked_repair(container, nullptr), ChecksumError);
}

TEST(Chunked, WhiteNoiseFramesFallBackWithoutBreakingContainer) {
  Rng rng(8);
  FloatArray data({30000});
  for (float& v : data.flat()) v = static_cast<float>(rng.normal());
  ChunkedConfig config;
  config.chunk_values = 10000;
  config.dpz.tve = 0.9999999;
  config.dpz.error_bound = 1e-12;  // force per-frame stored fallback
  ChunkedStats stats;
  const auto container = chunked_compress(data, config, &stats);
  EXPECT_EQ(stats.stored_raw_frames, stats.frame_count);
  const FloatArray back = chunked_decompress(container);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(data[i], back[i]);  // stored frames are bit-exact
}

// CRC32C verifications one call performs.
std::uint64_t crc_checks(const std::function<void()>& call) {
  obs::MetricsRegistry::instance().reset();
  call();
  return obs::MetricsRegistry::instance().snapshot().counter(
      obs::Counter::kCrcChecks);
}

TEST(ChunkedLayout, SharedParserAddsNoCrcWork) {
  // Every header seal, section, frame and parity shard a call reads is
  // checked once, and random access checks only the frame it reads.
  const obs::ScopedTelemetry telemetry(true);
  const auto dzc3 =
      chunked_compress(long_signal(4 * 4096, 41), parity_config(2, 1));
  const auto dpz = dpz_compress(long_signal(6144, 42), DpzConfig::strict());
  ASSERT_EQ(chunked_frame_count(dzc3), 4U);
  ASSERT_FALSE(dpz_inspect(dpz).stored_raw);

  // DZC3: the seal, 4 frame CRCs, then per frame its header pre-pass
  // (its seal) and its decode (seal + side, codes, outliers).
  EXPECT_EQ(crc_checks([&] { (void)chunked_decompress(dzc3); }), 25U);
  // The seal, the one frame, its decode.
  EXPECT_EQ(crc_checks([&] { (void)chunked_decompress_frame(dzc3, 2); }),
            6U);
  // The seal, per frame its CRC plus its own seal and three sections,
  // and the two parity shards.
  EXPECT_EQ(crc_checks([&] { (void)verify_archive(dzc3); }), 23U);
  EXPECT_EQ(crc_checks([&] { (void)dpz_decompress(dpz); }), 4U);
  EXPECT_EQ(crc_checks([&] { (void)verify_archive(dpz); }), 4U);

  // Only a failing frame widens the scan, to its group-mate and the
  // group's parity shard.
  auto damaged = dzc3;
  damage_frame(damaged, 2);
  EXPECT_EQ(crc_checks([&] { (void)chunked_decompress_frame(damaged, 2); }),
            8U);
}

}  // namespace
}  // namespace dpz
