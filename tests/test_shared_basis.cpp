// Tests for the shared-basis campaign codec: train/serialize/restore
// round-trips, cross-snapshot reuse, drift tolerance, and format checks.
#include <gtest/gtest.h>

#include <cmath>

#include "core/shared_basis.h"
#include "metrics/metrics.h"
#include "util/rng.h"

namespace dpz {
namespace {

// Snapshot t of a slowly evolving campaign field.
FloatArray campaign_snapshot(std::size_t rows, std::size_t cols, double t,
                             std::uint64_t seed) {
  Rng rng(seed + static_cast<std::uint64_t>(t * 1000));
  FloatArray a({rows, cols});
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      // Amplitude + global-offset drift: the spatial pattern (and hence
      // the basis span) is stable across the campaign; its intensity and
      // mean level are not. The codec's DC guard direction absorbs the
      // offset (see SharedBasisCodec::train).
      a(i, j) = static_cast<float>(
          (1.0 + 0.15 * t) *
              std::sin(2.0 * static_cast<double>(i) / rows * 6.28) *
              std::cos(1.5 * static_cast<double>(j) / cols * 6.28) +
          0.1 * t + 0.002 * rng.normal());
  return a;
}

TEST(SharedBasis, TrainingSnapshotRoundTrips) {
  const FloatArray snap = campaign_snapshot(64, 128, 0.0, 1);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  const SharedBasisCodec codec = SharedBasisCodec::train(snap, config);

  const auto archive = codec.compress(snap);
  const FloatArray back = codec.decompress(archive);
  EXPECT_GT(compute_error_stats(snap.flat(), back.flat()).psnr_db, 45.0);
}

TEST(SharedBasis, DriftedSnapshotsStayAccurate) {
  const FloatArray reference = campaign_snapshot(64, 128, 0.0, 2);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  const SharedBasisCodec codec = SharedBasisCodec::train(reference, config);

  for (const double t : {0.5, 1.0, 2.0}) {
    const FloatArray snap = campaign_snapshot(64, 128, t, 2);
    const FloatArray back = codec.decompress(codec.compress(snap));
    EXPECT_GT(compute_error_stats(snap.flat(), back.flat()).psnr_db, 35.0)
        << "t = " << t;
  }
}

TEST(SharedBasis, SnapshotArchivesOmitTheBasis) {
  const FloatArray snap = campaign_snapshot(64, 128, 0.0, 3);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.99999;
  const SharedBasisCodec codec = SharedBasisCodec::train(snap, config);

  DpzStats standalone_stats;
  const auto standalone = dpz_compress(snap, config, &standalone_stats);
  DpzStats shared_stats;
  const auto shared = codec.compress(snap, &shared_stats);
  // Per-snapshot archives must be smaller than standalone DPZ ones by
  // roughly the basis size.
  EXPECT_LT(shared.size() + standalone_stats.side_bytes / 2,
            standalone.size());
}

TEST(SharedBasis, SerializeRestoreDecompresses) {
  const FloatArray snap = campaign_snapshot(48, 96, 0.0, 4);
  DpzConfig config = DpzConfig::strict();
  config.tve = 0.9999;
  const SharedBasisCodec codec = SharedBasisCodec::train(snap, config);
  const auto archive = codec.compress(snap);

  const auto blob = codec.serialize();
  const SharedBasisCodec restored = SharedBasisCodec::deserialize(blob);
  EXPECT_EQ(restored.k(), codec.k());
  EXPECT_EQ(restored.layout().m, codec.layout().m);

  const FloatArray direct = codec.decompress(archive);
  const FloatArray via_blob = restored.decompress(archive);
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(direct[i], via_blob[i]);
}

TEST(SharedBasis, ShapeMismatchRejected) {
  const FloatArray snap = campaign_snapshot(48, 96, 0.0, 5);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(snap, DpzConfig::strict());
  const FloatArray wrong = campaign_snapshot(96, 48, 0.0, 5);
  EXPECT_THROW(codec.compress(wrong), InvalidArgument);
}

TEST(SharedBasis, GarbageBlobsRejected) {
  const std::vector<std::uint8_t> garbage(64, 0x5A);
  EXPECT_THROW(SharedBasisCodec::deserialize(garbage), FormatError);

  const FloatArray snap = campaign_snapshot(48, 96, 0.0, 6);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(snap, DpzConfig::strict());
  EXPECT_THROW(codec.decompress(garbage), FormatError);
}

TEST(SharedBasis, SnapshotArchiveNotReadableAsDpz) {
  const FloatArray snap = campaign_snapshot(48, 96, 0.0, 7);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(snap, DpzConfig::strict());
  const auto archive = codec.compress(snap);
  EXPECT_THROW(dpz_decompress(archive), FormatError);
}

TEST(SharedBasis, KneeSelectionSupported) {
  const FloatArray snap = campaign_snapshot(64, 128, 0.0, 8);
  DpzConfig config = DpzConfig::loose();
  config.selection = KSelectionMethod::kKneePoint;
  const SharedBasisCodec codec = SharedBasisCodec::train(snap, config);
  EXPECT_GE(codec.k(), 1U);
  const FloatArray back = codec.decompress(codec.compress(snap));
  EXPECT_EQ(back.shape(), snap.shape());
}

TEST(SharedBasis, FixedKIsHonoured) {
  // The codec selects k with the compressor's own rule, so fixed_k wins
  // over the TVE threshold. k() counts the appended DC drift direction
  // (the campaign field's offset is not in the leading components).
  const FloatArray snap = campaign_snapshot(64, 128, 0.0, 9);
  DpzConfig config = DpzConfig::strict();
  config.fixed_k = 5;
  const SharedBasisCodec codec = SharedBasisCodec::train(snap, config);
  EXPECT_EQ(codec.k(), 6U);
  config.fixed_k = 0;
  EXPECT_NE(SharedBasisCodec::train(snap, config).k(), 6U);
}

TEST(SharedBasis, TrainRejectsSettingsASnapshotCannotCarry) {
  // A snapshot stores no per-feature scales and keeps every DCT
  // coefficient, so a standardized or truncated fit could not be applied
  // the way it was trained.
  const FloatArray snap = campaign_snapshot(48, 96, 0.0, 10);
  DpzConfig config = DpzConfig::strict();
  config.standardize = 1;
  EXPECT_THROW(SharedBasisCodec::train(snap, config), InvalidArgument);
  config.standardize = 0;
  config.dct_keep_fraction = 0.5;
  EXPECT_THROW(SharedBasisCodec::train(snap, config), InvalidArgument);
  config.dct_keep_fraction = 1.0;
  EXPECT_NO_THROW(SharedBasisCodec::train(snap, config));
}

}  // namespace
}  // namespace dpz
