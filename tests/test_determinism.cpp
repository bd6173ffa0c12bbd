// Determinism under the threads knob: every pipeline must produce
// byte-identical archives AND byte-identical reconstructions for every
// worker count. This is the format-level guarantee the parallel rewrite
// promises (static partitioning, disjoint writes, no order-dependent
// reductions) — any ordering bug shows up here as a byte diff long
// before it corrupts a user's data.
//
// The whole suite runs with telemetry recording ON: byte identity
// across thread counts while every span and counter site is live is the
// standing proof that the observability layer (src/obs) never perturbs
// output bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/dctzlike.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/shared_basis.h"
#include "data/datasets.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "simd/simd.h"
#include "synthetic_2d.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

[[maybe_unused]] const bool g_telemetry_on = [] {
  obs::set_telemetry_enabled(true);
  return true;
}();

// The whole suite also runs with structured logging at its most verbose
// level: every byte-invariance assertion below doubles as proof that the
// flight recorder and log sites never touch the data path.
[[maybe_unused]] const bool g_logging_on = [] {
  obs::set_log_level(obs::LogLevel::kTrace);
  return true;
}();

constexpr unsigned kThreadCounts[] = {1, 2, 8};

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

TEST(Determinism, DpzLooseArchiveAndDecodeAreThreadCountInvariant) {
  const FloatArray data = synthetic_2d(96, 80, 11);
  DpzConfig config = DpzConfig::loose();
  config.threads = 1;
  const std::vector<std::uint8_t> ref_archive = dpz_compress(data, config);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(dpz_decompress(ref_archive, 0, 1));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    EXPECT_EQ(dpz_compress(data, config), ref_archive)
        << "archive differs at threads=" << threads;
    EXPECT_EQ(float_bytes(dpz_decompress(ref_archive, 0, threads)),
              ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, DpzStrictArchiveAndDecodeAreThreadCountInvariant) {
  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  DpzConfig config = DpzConfig::strict();
  config.threads = 1;
  const std::vector<std::uint8_t> ref_archive =
      dpz_compress(ds.data, config);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(dpz_decompress(ref_archive, 0, 1));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    EXPECT_EQ(dpz_compress(ds.data, config), ref_archive)
        << "archive differs at threads=" << threads;
    EXPECT_EQ(float_bytes(dpz_decompress(ref_archive, 0, threads)),
              ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, TeamReductionArchiveIsThreadCountInvariant) {
  // M = 360 is past the size (256) from which Stage 2's Householder
  // reduction runs on a team of row-owning participants, and 2k < M
  // sends the basis solve through inverse iteration and the banded
  // back-transform; the stats check pins both so coverage cannot drift.
  const Dataset ds = make_dataset("CLDHGH", 0.2);
  DpzConfig config = DpzConfig::strict();
  config.threads = 1;
  DpzStats stats;
  const std::vector<std::uint8_t> ref_archive =
      dpz_compress(ds.data, config, &stats);
  EXPECT_GE(stats.layout.m, 256U);
  EXPECT_LT(2 * stats.k, stats.layout.m);
  for (const unsigned threads : {2U, 3U, 4U, 8U}) {
    config.threads = threads;
    EXPECT_EQ(dpz_compress(ds.data, config), ref_archive)
        << "archive differs at threads=" << threads;
  }
}

TEST(Determinism, DpzF64ArchiveAndDecodeAreThreadCountInvariant) {
  Rng rng(7);
  std::vector<double> values(48 * 64);
  for (double& v : values) v = rng.uniform(-2.0, 2.0);
  const DoubleArray data({48, 64}, std::move(values));
  DpzConfig config = DpzConfig::strict();
  config.threads = 1;
  const std::vector<std::uint8_t> ref_archive = dpz_compress(data, config);
  const std::vector<std::uint8_t> ref_decode =
      double_bytes(dpz_decompress_f64(ref_archive, 0, 1));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    EXPECT_EQ(dpz_compress(data, config), ref_archive)
        << "archive differs at threads=" << threads;
    EXPECT_EQ(double_bytes(dpz_decompress_f64(ref_archive, 0, threads)),
              ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, DpzSamplingPathIsThreadCountInvariant) {
  // Algorithm 2 adds the VIF probe and the subset estimator to the
  // parallel surface; the seed pins its subset choice, so bytes
  // must still be invariant. The first input (M = 64) takes the dense
  // top-k fallback. The second must reach inverse iteration, which the
  // stats check pins so the coverage cannot drift away; at the strict
  // TVE its estimate is k = M, so it runs at TVE 0.9 (k = 47 of 160).
  const auto check = [](const FloatArray& data, double tve) {
    DpzConfig config = DpzConfig::strict();
    config.use_sampling = true;
    config.tve = tve;
    config.threads = 1;
    DpzStats stats;
    const std::vector<std::uint8_t> ref_archive =
        dpz_compress(data, config, &stats);
    for (const unsigned threads : kThreadCounts) {
      config.threads = threads;
      EXPECT_EQ(dpz_compress(data, config), ref_archive)
          << "archive differs, M=" << stats.layout.m << " threads=" << threads;
    }
    return stats;
  };
  check(synthetic_2d(128, 96, 5), DpzConfig::strict().tve);
  const DpzStats truncated = check(synthetic_2d(256, 200, 5), 0.9);
  EXPECT_GT(truncated.layout.m, 64U);
  EXPECT_LT(2 * truncated.k, truncated.layout.m);
}

TEST(Determinism, ChunkedContainerIsThreadCountInvariant) {
  const FloatArray data = synthetic_2d(160, 120, 23);
  ChunkedConfig config;
  config.dpz = DpzConfig::strict();
  config.chunk_values = 2048;  // several frames for the outer fan-out
  config.threads = 1;
  const std::vector<std::uint8_t> ref_archive =
      chunked_compress(data, config);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(chunked_decompress(ref_archive, 1));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    EXPECT_EQ(chunked_compress(data, config), ref_archive)
        << "container differs at threads=" << threads;
    EXPECT_EQ(float_bytes(chunked_decompress(ref_archive, threads)),
              ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, ChunkedParityContainerIsThreadCountInvariant) {
  // The parity section is derived from the compressed frame payloads, so
  // any thread-count dependence in the frame bytes would surface here too.
  const FloatArray data = synthetic_2d(160, 120, 23);
  ChunkedConfig config;
  config.dpz = DpzConfig::strict();
  config.chunk_values = 2048;
  config.parity_k = 4;
  config.parity_m = 2;
  config.threads = 1;
  const std::vector<std::uint8_t> ref_archive =
      chunked_compress(data, config);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(chunked_decompress(ref_archive, 1));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    EXPECT_EQ(chunked_compress(data, config), ref_archive)
        << "container differs at threads=" << threads;
    EXPECT_EQ(float_bytes(chunked_decompress(ref_archive, threads)),
              ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, SharedBasisCodecIsThreadCountInvariant) {
  const FloatArray reference = synthetic_2d(96, 96, 31);
  const FloatArray snapshot = synthetic_2d(96, 96, 32);
  DpzConfig config = DpzConfig::strict();
  config.threads = 1;
  const SharedBasisCodec ref_codec =
      SharedBasisCodec::train(reference, config);
  const std::vector<std::uint8_t> ref_blob = ref_codec.serialize();
  const std::vector<std::uint8_t> ref_archive =
      ref_codec.compress(snapshot);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(ref_codec.decompress(ref_archive));
  for (const unsigned threads : kThreadCounts) {
    config.threads = threads;
    const SharedBasisCodec codec =
        SharedBasisCodec::train(reference, config);
    EXPECT_EQ(codec.serialize(), ref_blob)
        << "basis blob differs at threads=" << threads;
    EXPECT_EQ(codec.compress(snapshot), ref_archive)
        << "archive differs at threads=" << threads;
    SharedBasisCodec reader = SharedBasisCodec::deserialize(ref_blob);
    reader.set_threads(threads);
    EXPECT_EQ(float_bytes(reader.decompress(ref_archive)), ref_decode)
        << "decode differs at threads=" << threads;
  }
}

TEST(Determinism, BaselineUnderScopedPoolIsThreadCountInvariant) {
  // The DCTZ-like baseline reaches the free parallel_for through
  // whatever pool is in scope; its bytes must not depend on the pool
  // either.
  const FloatArray data = synthetic_2d(72, 88, 41);
  DctzLikeConfig config;
  std::vector<std::uint8_t> ref_archive;
  std::vector<std::uint8_t> ref_decode;
  for (const unsigned threads : kThreadCounts) {
    const ScopedThreads scope(threads);
    const std::vector<std::uint8_t> archive =
        dctzlike_compress(data, config);
    const std::vector<std::uint8_t> decode =
        float_bytes(dctzlike_decompress(archive));
    if (ref_archive.empty()) {
      ref_archive = archive;
      ref_decode = decode;
    } else {
      EXPECT_EQ(archive, ref_archive)
          << "archive differs at threads=" << threads;
      EXPECT_EQ(decode, ref_decode)
          << "decode differs at threads=" << threads;
    }
  }
}

TEST(Determinism, ArchiveBytesAreIsaAndThreadCountInvariant) {
  // The sixteen-lane reduction contract (src/simd/simd.h) promises that
  // every ISA's kernels produce bit-identical doubles; this is where that
  // promise meets the format-level one. Sweep every executable ISA
  // crossed with the threads knob — the same sweep the forced-scalar CI
  // job runs via DPZ_FORCE_ISA — and require byte-identical archives and
  // reconstructions everywhere.
  struct ForceGuard {
    ~ForceGuard() { simd::set_force_isa(std::nullopt); }
  } guard;

  const FloatArray dense = synthetic_2d(96, 80, 67);
  const FloatArray frames = synthetic_2d(128, 96, 68);
  DpzConfig config = DpzConfig::strict();
  ChunkedConfig chunked;
  chunked.dpz = DpzConfig::strict();
  chunked.chunk_values = 2048;

  simd::set_force_isa(simd::Isa::kScalar);
  config.threads = 1;
  chunked.threads = 1;
  const std::vector<std::uint8_t> ref_archive = dpz_compress(dense, config);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(dpz_decompress(ref_archive, 0, 1));
  const std::vector<std::uint8_t> ref_container =
      chunked_compress(frames, chunked);

  for (const simd::Isa isa : simd::available_isas()) {
    simd::set_force_isa(isa);
    for (const unsigned threads : kThreadCounts) {
      config.threads = threads;
      chunked.threads = threads;
      EXPECT_EQ(dpz_compress(dense, config), ref_archive)
          << "archive differs at isa=" << simd::isa_name(isa)
          << " threads=" << threads;
      EXPECT_EQ(float_bytes(dpz_decompress(ref_archive, 0, threads)),
                ref_decode)
          << "decode differs at isa=" << simd::isa_name(isa)
          << " threads=" << threads;
      EXPECT_EQ(chunked_compress(frames, chunked), ref_container)
          << "container differs at isa=" << simd::isa_name(isa)
          << " threads=" << threads;
    }
  }
}

TEST(Determinism, ResourceLimitsAreByteInvisibleAcrossThreadCounts) {
  // Governance checkpoints and memory charges sit inside every stage
  // and strip loop; with limits enabled but never tripping, the bytes
  // must be indistinguishable from an ungoverned run at every worker
  // count (the ResourceLimits design invariant).
  const FloatArray data = synthetic_2d(96, 80, 47);
  DpzConfig plain = DpzConfig::strict();
  plain.threads = 1;
  const std::vector<std::uint8_t> ref_archive = dpz_compress(data, plain);
  const std::vector<std::uint8_t> ref_decode =
      float_bytes(dpz_decompress(ref_archive, 0, 1));

  CancelSource never;
  ResourceLimits limits;
  limits.max_memory_bytes = 1ULL << 30;
  limits.deadline_ns = ResourceLimits::deadline_after_ms(300000.0);
  limits.cancel = never.token();
  DpzConfig governed = plain;
  governed.limits = limits;
  for (const unsigned threads : kThreadCounts) {
    governed.threads = threads;
    EXPECT_EQ(dpz_compress(data, governed), ref_archive)
        << "governed archive differs at threads=" << threads;
    EXPECT_EQ(
        float_bytes(dpz_decompress(ref_archive, 0, threads, limits)),
        ref_decode)
        << "governed decode differs at threads=" << threads;
  }

  ChunkedConfig chunk_plain;
  chunk_plain.chunk_values = 2048;
  chunk_plain.threads = 1;
  const FloatArray flat = synthetic_2d(1, 3 * 2048, 48);
  const std::vector<std::uint8_t> ref_container =
      chunked_compress(flat, chunk_plain);
  ChunkedConfig chunk_governed = chunk_plain;
  chunk_governed.dpz.limits = limits;
  for (const unsigned threads : kThreadCounts) {
    chunk_governed.threads = threads;
    EXPECT_EQ(chunked_compress(flat, chunk_governed), ref_container)
        << "governed container differs at threads=" << threads;
  }
}

TEST(Determinism, ProgressiveDecodeIsThreadCountInvariant) {
  // max_components trims the score streams; the partial reconstruction
  // must be as thread-invariant as the full one.
  const FloatArray data = synthetic_2d(96, 80, 55);
  DpzConfig config = DpzConfig::strict();
  const std::vector<std::uint8_t> archive = dpz_compress(data, config);
  const DpzArchiveInfo info = dpz_inspect(archive);
  const std::size_t partial = info.k > 1 ? info.k / 2 : 1;
  const std::vector<std::uint8_t> ref =
      float_bytes(dpz_decompress(archive, partial, 1));
  for (const unsigned threads : kThreadCounts)
    EXPECT_EQ(float_bytes(dpz_decompress(archive, partial, threads)), ref)
        << "partial decode differs at threads=" << threads;
}

}  // namespace
}  // namespace dpz
