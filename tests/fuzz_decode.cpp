// Structure-aware decode fuzzing (deterministic, in-process).
//
// Every case compresses known-good data, then feeds >= 1000 seeded
// mutations of the archive (tests/mutator.h: bit flips, truncations,
// length-field/section-header forgeries, table corruption) to the
// decoder and requires one of exactly two outcomes:
//
//   1. a recoverable dpz::Error whose StatusCode is not kOk — the
//      "clean status" contract for untrusted bytes; or
//   2. a successful decode whose result is shape-consistent (mutations
//      that only perturb payload values are allowed to succeed).
//
// Anything else — a crash, an uncaught foreign exception, a bad_alloc
// from an unvalidated allocation size, or (under -DDPZ_SANITIZE) any
// sanitizer report — fails the suite. Seeds derive from GTest-visible
// constants so a failure reproduces bit-exactly from its test name.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "baselines/dctzlike.h"
#include "baselines/mgard_like.h"
#include "baselines/szlike.h"
#include "baselines/tthresh_like.h"
#include "baselines/zfplike.h"
#include "capi/dpz_c.h"
#include "codec/huffman.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/shared_basis.h"
#include "core/verify.h"
#include "io/file_io.h"
#include "mutator.h"
#include "util/rng.h"

namespace dpz {
namespace {

constexpr std::size_t kMutationsPerShape = 1000;

FloatArray wave(std::vector<std::size_t> shape, std::uint64_t seed) {
  FloatArray a(shape);
  Rng rng(seed);
  const double f = rng.uniform(1.0, 4.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(f * static_cast<double>(i) * 0.01) +
                              0.01 * rng.normal());
  return a;
}

// Incompressible noise: trips the stored-raw fallback.
FloatArray noise(std::vector<std::size_t> shape, std::uint64_t seed) {
  FloatArray a(shape);
  Rng rng(seed);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  return a;
}

bool succeeds(const std::function<void()>& decode) {
  try {
    decode();
    return true;
  } catch (const Error&) {
    return false;
  }
}

DoubleArray wave_f64(std::vector<std::size_t> shape, std::uint64_t seed) {
  const FloatArray f = wave(std::move(shape), seed);
  DoubleArray a(f.shape());
  for (std::size_t i = 0; i < f.size(); ++i)
    a[i] = static_cast<double>(f[i]);
  return a;
}

/// Core fuzz loop: mutate `archive` kMutationsPerShape times and demand a
/// clean dpz::Error status or a decode the validator accepts.
void fuzz_decode(std::span<const std::uint8_t> archive, std::uint64_t seed,
                 const std::function<void(std::span<const std::uint8_t>)>&
                     decode_and_validate) {
  ASSERT_FALSE(archive.empty());
  std::size_t clean_errors = 0;
  std::size_t survivals = 0;
  for (std::size_t i = 0; i < kMutationsPerShape; ++i) {
    ArchiveMutator mutator(seed * 1000003ULL + i);
    const std::vector<std::uint8_t> mutated = mutator.mutate(archive);
    try {
      decode_and_validate(mutated);
      ++survivals;
    } catch (const Error& e) {
      // The recoverable-status contract: classified, message-bearing.
      EXPECT_NE(e.code(), StatusCode::kOk)
          << "mutation " << i << " (" << mutator.trace() << ")";
      EXPECT_NE(std::string(e.what()), "")
          << "mutation " << i << " (" << mutator.trace() << ")";
      ++clean_errors;
    }
    // Any other exception type escapes and fails the test: decoders may
    // only fail through the dpz::Error hierarchy.
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Sanity on the harness itself: mutations must actually be corrupting
  // (an all-survive run means the decoder was never really exercised).
  // Payload-only corruption may legitimately decode — e.g. Huffman bit
  // flips resynchronize — so the floor is deliberately low.
  EXPECT_GT(clean_errors, kMutationsPerShape / 20)
      << "survivals: " << survivals;
}

TEST(FuzzDecode, Dpz1D) {
  const auto archive = dpz_compress(wave({4096}, 11), DpzConfig::loose());
  fuzz_decode(archive, 101, [](std::span<const std::uint8_t> bytes) {
    const FloatArray out = dpz_decompress(bytes);
    ASSERT_GE(out.size(), 1U);
  });
}

TEST(FuzzDecode, Dpz2D) {
  const auto archive = dpz_compress(wave({64, 96}, 12), DpzConfig::strict());
  fuzz_decode(archive, 102, [](std::span<const std::uint8_t> bytes) {
    const FloatArray out = dpz_decompress(bytes);
    std::size_t product = 1;
    for (const std::size_t d : out.shape()) product *= d;
    ASSERT_EQ(product, out.size());
  });
}

TEST(FuzzDecode, Dpz3D) {
  const auto archive = dpz_compress(wave({16, 16, 24}, 13),
                                    DpzConfig::strict());
  fuzz_decode(archive, 103, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_decompress(bytes);
  });
}

TEST(FuzzDecode, Dpz2DDouble) {
  const auto archive =
      dpz_compress(wave_f64({48, 64}, 14), DpzConfig::loose());
  fuzz_decode(archive, 104, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_decompress_f64(bytes);
  });
}

TEST(FuzzDecode, DpzProgressive) {
  const auto archive = dpz_compress(wave({64, 64}, 15), DpzConfig::strict());
  fuzz_decode(archive, 105, [](std::span<const std::uint8_t> bytes) {
    (void)dpz_decompress(bytes, /*max_components=*/2);
  });
}

TEST(FuzzDecode, DpzInspect) {
  const auto archive = dpz_compress(wave({4096}, 16), DpzConfig::loose());
  fuzz_decode(archive, 106, [](std::span<const std::uint8_t> bytes) {
    const DpzArchiveInfo info = dpz_inspect(bytes);
    ASSERT_LE(info.shape.size(), 4U);
  });
}

TEST(FuzzDecode, Chunked) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  const auto container = chunked_compress(wave({3 * 4096 + 100}, 17),
                                          config);
  fuzz_decode(container, 107, [](std::span<const std::uint8_t> bytes) {
    (void)chunked_decompress(bytes);
  });
}

TEST(FuzzDecode, ChunkedFrameAccess) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  const auto container = chunked_compress(wave({2 * 4096}, 18), config);
  fuzz_decode(container, 108, [](std::span<const std::uint8_t> bytes) {
    const std::size_t frames = chunked_frame_count(bytes);
    if (frames > 0) (void)chunked_decompress_frame(bytes, 0);
  });
}

TEST(FuzzDecode, CApi) {
  const auto archive = dpz_compress(wave({48, 64}, 19), DpzConfig::loose());
  fuzz_decode(archive, 109, [](std::span<const std::uint8_t> bytes) {
    float* out = nullptr;
    std::size_t count = 0;
    const int rc = dpz_decompress_float(bytes.data(), bytes.size(), &out,
                                        &count);
    if (rc == DPZ_OK) {
      ASSERT_NE(out, nullptr);
      ASSERT_GE(count, 1U);
      dpz_free(out);
    } else {
      // No exception may cross the C boundary; instead the status code and
      // the per-thread message must classify the failure.
      ASSERT_NE(std::string(dpz_last_error()), "");
      ASSERT_NE(std::string(dpz_status_name(rc)), "ok");
      // Re-throw as a dpz::Error so the harness counts it as clean.
      throw FormatError(dpz_last_error());
    }
  });
}

TEST(FuzzDecode, SharedBasisBlob) {
  const FloatArray reference = wave({64, 64}, 20);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(reference, DpzConfig::strict());
  const auto blob = codec.serialize();
  fuzz_decode(blob, 110, [](std::span<const std::uint8_t> bytes) {
    (void)SharedBasisCodec::deserialize(bytes);
  });
}

TEST(FuzzDecode, SharedBasisSnapshot) {
  const FloatArray reference = wave({64, 64}, 21);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(reference, DpzConfig::strict());
  const auto snapshot = codec.compress(reference);
  fuzz_decode(snapshot, 111, [&](std::span<const std::uint8_t> bytes) {
    (void)codec.decompress(bytes);
  });
}

TEST(FuzzDecode, Huffman) {
  // The Huffman container (alphabet, count, plaintext length table, bit
  // payload) is fuzzed unwrapped so table corruption reaches the decoder
  // directly instead of dying inside zlib first.
  Rng rng(22);
  std::vector<std::uint32_t> symbols(4096);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(rng.uniform_index(300));
  const auto encoded = huffman_encode(symbols, 512);
  fuzz_decode(encoded, 112, [](std::span<const std::uint8_t> bytes) {
    const auto decoded = huffman_decode(bytes);
    ASSERT_LE(decoded.size(), bytes.size() * 8);
  });
}

TEST(FuzzDecode, SzLike) {
  const auto archive = szlike_compress(wave({48, 64}, 23), SzLikeConfig{});
  fuzz_decode(archive, 113, [](std::span<const std::uint8_t> bytes) {
    (void)szlike_decompress(bytes);
  });
}

TEST(FuzzDecode, ZfpLike) {
  const auto archive = zfplike_compress(wave({24, 24, 24}, 24),
                                        ZfpLikeConfig{});
  fuzz_decode(archive, 114, [](std::span<const std::uint8_t> bytes) {
    (void)zfplike_decompress(bytes);
  });
}

TEST(FuzzDecode, DctzLike) {
  const auto archive = dctzlike_compress(wave({64, 64}, 25),
                                         DctzLikeConfig{});
  fuzz_decode(archive, 115, [](std::span<const std::uint8_t> bytes) {
    (void)dctzlike_decompress(bytes);
  });
}

TEST(FuzzDecode, MgardLike) {
  const auto archive = mgard_like_compress(wave({48, 48}, 26),
                                           MgardLikeConfig{});
  fuzz_decode(archive, 116, [](std::span<const std::uint8_t> bytes) {
    (void)mgard_like_decompress(bytes);
  });
}

TEST(FuzzDecode, TthreshLike) {
  const auto archive = tthresh_like_compress(wave({24, 32}, 27),
                                             TthreshLikeConfig{});
  fuzz_decode(archive, 117, [](std::span<const std::uint8_t> bytes) {
    (void)tthresh_like_decompress(bytes);
  });
}

TEST(FuzzDecode, ChunkedBestEffort) {
  // Best effort may convert frame damage into a partial success, but a
  // success must keep its books consistent: every frame is accounted for
  // either as recovered or as lost, and the output covers the full shape.
  ChunkedConfig config;
  config.chunk_values = 4096;
  const auto container = chunked_compress(wave({3 * 4096 + 100}, 32),
                                          config);
  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  best.fill_value = -1.0F;
  fuzz_decode(container, 121, [&](std::span<const std::uint8_t> bytes) {
    DecodeReport report;
    const FloatArray out = chunked_decompress(bytes, best, &report);
    ASSERT_EQ(report.frames_recovered + report.lost.size(),
              report.frames_total);
    std::size_t product = 1;
    for (const std::size_t d : out.shape()) product *= d;
    ASSERT_EQ(product, out.size());
  });
}

TEST(FuzzDecode, ChunkedWithParity) {
  // A DZC3 container under the full mutation mix (including the
  // parity-section kind). Repair makes many frame corruptions decode
  // successfully, so the clean-error floor is carried by header/table
  // damage; a success must hand back a complete, consistently
  // accounted reconstruction — never bytes rebuilt from forged parity.
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 2;
  config.parity_m = 1;
  const auto container = chunked_compress(wave({4 * 4096 + 64}, 36),
                                          config);
  fuzz_decode(container, 123, [&](std::span<const std::uint8_t> bytes) {
    DecodeReport report;
    const FloatArray out = chunked_decompress(bytes, config, &report);
    ASSERT_TRUE(report.complete());
    ASSERT_GE(report.frames_recovered, report.frames_repaired);
    std::size_t product = 1;
    for (const std::size_t d : out.shape()) product *= d;
    ASSERT_EQ(product, out.size());
  });
}

TEST(FuzzDecode, ChunkedWithParityBestEffort) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 2;
  config.parity_m = 1;
  const auto container = chunked_compress(wave({4 * 4096 + 64}, 37),
                                          config);
  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  best.fill_value = -1.0;
  fuzz_decode(container, 124, [&](std::span<const std::uint8_t> bytes) {
    DecodeReport report;
    const FloatArray out = chunked_decompress(bytes, best, &report);
    ASSERT_EQ(report.frames_recovered + report.lost.size(),
              report.frames_total);
    ASSERT_LE(report.frames_repaired, report.frames_recovered);
    std::size_t product = 1;
    for (const std::size_t d : out.shape()) product *= d;
    ASSERT_EQ(product, out.size());
  });
}

TEST(FuzzDecode, ChunkedRepairAndScrubNeverCrash) {
  // The repair and scrub entry points walk the same untrusted geometry
  // as the decoder; they must uphold the same clean-status contract.
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 2;
  config.parity_m = 1;
  const auto container = chunked_compress(wave({4 * 4096}, 38), config);
  fuzz_decode(container, 125, [](std::span<const std::uint8_t> bytes) {
    const std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
    const ScrubReport scrub = chunked_scrub(copy);
    ASSERT_LE(scrub.frames_damaged, scrub.frames_total);
    const std::vector<std::uint8_t> healed = chunked_repair(copy, nullptr);
    // A successful repair must produce a container that scrubs clean.
    ASSERT_TRUE(chunked_scrub(healed).ok());
  });
}

TEST(FuzzDecode, VerifyArchiveNeverThrows) {
  // verify_archive is the no-throw pre-flight check: for any input,
  // however mangled, it must return a report (never raise) whose ok bit
  // agrees with the problem list.
  std::vector<std::vector<std::uint8_t>> archives;
  archives.push_back(dpz_compress(wave({64, 96}, 33), DpzConfig::strict()));
  ChunkedConfig config;
  config.chunk_values = 4096;
  archives.push_back(chunked_compress(wave({2 * 4096 + 500}, 34), config));
  const SharedBasisCodec codec =
      SharedBasisCodec::train(wave({64, 64}, 35), DpzConfig::strict());
  archives.push_back(codec.serialize());
  config.parity_k = 2;
  config.parity_m = 1;
  archives.push_back(chunked_compress(wave({3 * 4096}, 39), config));
  archives.push_back(codec.compress(wave({64, 64}, 40)));
  archives.push_back(dpz_compress(noise({40, 50}, 41), DpzConfig::strict()));
  ASSERT_TRUE(dpz_inspect(archives.back()).stored_raw);

  std::uint64_t seed = 122;
  for (const auto& archive : archives) {
    ASSERT_TRUE(verify_archive(archive).ok);
    std::size_t detected = 0;
    for (std::size_t i = 0; i < kMutationsPerShape; ++i) {
      ArchiveMutator mutator(seed * 1000003ULL + i);
      const std::vector<std::uint8_t> mutated = mutator.mutate(archive);
      VerifyReport rep;
      ASSERT_NO_THROW(rep = verify_archive(mutated)) << mutator.trace();
      EXPECT_EQ(rep.ok, rep.problems.empty()) << mutator.trace();
      if (!rep.ok) ++detected;
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(detected, kMutationsPerShape / 20);
    ++seed;
  }
}

// Differential oracle: verify_archive walks the decoders' own layout
// parser, so its verdict must agree with the strict decoder's on every
// mutation of the sweeps above (same archives, same seeds; stored-raw is
// new). This covers v2 inputs; a mutation that turns the version byte
// into 1 leaves a legacy archive with no checksums to judge it by.
TEST(FuzzDecode, DifferentialVerifyMatchesStrictDecode) {
  const SharedBasisCodec trained =
      SharedBasisCodec::train(wave({64, 64}, 20), DpzConfig::strict());
  const FloatArray reference = wave({64, 64}, 21);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(reference, DpzConfig::strict());
  ChunkedConfig chunked;
  chunked.chunk_values = 4096;
  struct Case {
    const char* name;
    std::uint64_t seed;
    std::vector<std::uint8_t> archive;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<Case> cases = {
      {"dpz-2d", 102, dpz_compress(wave({64, 96}, 12), DpzConfig::strict()),
       [](std::span<const std::uint8_t> b) { (void)dpz_decompress(b); }},
      {"stored-raw", 130,
       dpz_compress(noise({40, 50}, 44), DpzConfig::strict()),
       [](std::span<const std::uint8_t> b) { (void)dpz_decompress(b); }},
      {"dzc2", 107, chunked_compress(wave({3 * 4096 + 100}, 17), chunked),
       [](std::span<const std::uint8_t> b) { (void)chunked_decompress(b); }},
      {"basis-blob", 110, trained.serialize(),
       [](std::span<const std::uint8_t> b) {
         (void)SharedBasisCodec::deserialize(b);
       }},
      {"snapshot", 111, codec.compress(reference),
       [&codec](std::span<const std::uint8_t> b) {
         (void)codec.decompress(b);
       }},
  };
  ASSERT_TRUE(dpz_inspect(cases[1].archive).stored_raw);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(verify_archive(c.archive).ok);
    std::size_t compared = 0;
    for (std::size_t i = 0; i < kMutationsPerShape; ++i) {
      ArchiveMutator mutator(c.seed * 1000003ULL + i);
      const std::vector<std::uint8_t> mutated = mutator.mutate(c.archive);
      const VerifyReport rep = verify_archive(mutated);
      if (rep.version == 1) continue;
      ++compared;
      EXPECT_EQ(rep.ok, succeeds([&] { c.decode(mutated); }))
          << "mutation " << i << " (" << mutator.trace() << "): "
          << (rep.problems.empty() ? "verify ok" : rep.problems.front());
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(compared, kMutationsPerShape * 9 / 10);
  }
}

// The same oracle over ChunkedWithParity's DZC3 sweep, where damage
// within the parity budget decodes: verify's CRC-bad frames are exactly best effort's
// repaired and lost frames, scrub counts what verify flags, and strict
// decode succeeds exactly when verify's walk completed (header seal ok,
// every frame and parity row present) and every group either is intact
// or lost no more frames and parity shards than it has parity.
TEST(FuzzDecode, DifferentialParityOracle) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.parity_k = 2;
  config.parity_m = 1;
  const auto container = chunked_compress(wave({4 * 4096 + 64}, 36), config);
  ChunkedConfig best = config;
  best.decode_policy = DecodePolicy::kBestEffort;
  const std::size_t frames = chunked_frame_count(container);
  const std::size_t groups = chunked_parity_info(container).groups;
  const std::size_t rows = 1 + frames + groups * config.parity_m;
  ASSERT_EQ(verify_archive(container).sections.size(), rows);

  std::size_t walked_count = 0;
  for (std::size_t i = 0; i < kMutationsPerShape; ++i) {
    ArchiveMutator mutator(123 * 1000003ULL + i);
    const std::vector<std::uint8_t> mutated = mutator.mutate(container);
    SCOPED_TRACE("mutation " + std::to_string(i) + " (" + mutator.trace() +
                 ")");
    const VerifyReport rep = verify_archive(mutated);
    const bool walked =
        rep.sections.size() == rows && rep.sections.front().crc_ok;
    std::set<std::size_t> bad_frames;
    std::vector<std::size_t> group_frames(groups, 0);
    std::vector<std::size_t> group_shards(groups, 0);
    std::size_t bad_shards = 0;
    for (const SectionStatus& s : rep.sections) {
      if (s.crc_ok) continue;
      if (s.name.rfind("frame[", 0) == 0) {
        const std::size_t f = std::stoul(s.name.substr(6));
        bad_frames.insert(f);
        ++group_frames[f / config.parity_k];
      } else if (s.name.rfind("parity[", 0) == 0) {
        ++group_shards[std::stoul(s.name.substr(7))];
        ++bad_shards;
      }
    }

    DecodeReport report;
    EXPECT_EQ(succeeds([&] { (void)chunked_decompress(mutated, best,
                                                      &report); }),
              walked);
    ScrubReport scrub;
    EXPECT_EQ(succeeds([&] { scrub = chunked_scrub(mutated); }), walked);
    if (walked) {
      ++walked_count;
      std::set<std::size_t> touched(report.repaired.begin(),
                                    report.repaired.end());
      for (const DecodeReport::FrameError& lost : report.lost)
        touched.insert(lost.frame);
      EXPECT_EQ(touched, bad_frames);
      EXPECT_EQ(scrub.frames_damaged, bad_frames.size());
      EXPECT_EQ(scrub.parity_shards_damaged, bad_shards);
    }

    bool recoverable = walked;
    for (std::size_t g = 0; g < groups; ++g)
      if (group_frames[g] != 0 &&
          group_frames[g] + group_shards[g] > config.parity_m)
        recoverable = false;
    EXPECT_EQ(succeeds([&] { (void)chunked_decompress(mutated, config); }),
              recoverable);
    if (::testing::Test::HasFailure()) return;
  }
  // Harness sanity: enough mutations leave the tables readable for the
  // frame-level comparisons to mean something.
  EXPECT_GT(walked_count, kMutationsPerShape / 10);
}

// Truncation sweep over the committed golden fixtures (both the frozen v1
// generation and the current v2 one): cut every archive at each section
// boundary and one byte either side, then require a clean dpz::Error from
// the decoder and an !ok verify report. A partial download must never
// decode silently, whichever format generation it came from.
TEST(FuzzDecode, TruncationSweepOverGoldenFixtures) {
  const std::string dir = DPZ_GOLDEN_DIR;
  // The committed blob and its v2 regeneration train on identical data,
  // so one codec can host the snapshot decode for both generations (the
  // golden suite pins that equivalence).
  const SharedBasisCodec codec = SharedBasisCodec::deserialize(
      read_bytes(dir + "/shared_basis_2d_f32_strict.blob"));

  struct Fixture {
    std::string file;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const auto f32 = [](std::span<const std::uint8_t> b) {
    (void)dpz_decompress(b);
  };
  std::vector<Fixture> fixtures;
  for (const std::string& gen : {std::string(), std::string(".v2")}) {
    fixtures.push_back({"dpz_1d_f32_loose" + gen + ".dpz", f32});
    fixtures.push_back({"dpz_2d_f32_strict" + gen + ".dpz", f32});
    fixtures.push_back({"dpz_3d_f32_strict" + gen + ".dpz", f32});
    fixtures.push_back({"dpz_2d_f64_strict" + gen + ".dpz",
                        [](std::span<const std::uint8_t> b) {
                          (void)dpz_decompress_f64(b);
                        }});
    fixtures.push_back({"chunked_2d_f32_strict" + gen + ".dpz",
                        [](std::span<const std::uint8_t> b) {
                          (void)chunked_decompress(b);
                        }});
    fixtures.push_back({"shared_basis_2d_f32_strict" + gen + ".blob",
                        [](std::span<const std::uint8_t> b) {
                          (void)SharedBasisCodec::deserialize(b);
                        }});
    fixtures.push_back({"shared_basis_2d_f32_strict" + gen + ".dpz",
                        [&codec](std::span<const std::uint8_t> b) {
                          (void)codec.decompress(b);
                        }});
  }

  std::size_t total_cuts = 0;
  for (const Fixture& fixture : fixtures) {
    const std::vector<std::uint8_t> bytes =
        read_bytes(dir + "/" + fixture.file);
    const VerifyReport pristine = verify_archive(bytes);
    ASSERT_TRUE(pristine.ok) << fixture.file;
    ASSERT_FALSE(pristine.sections.empty()) << fixture.file;

    std::set<std::size_t> cuts;
    for (const SectionStatus& s : pristine.sections) {
      for (const std::uint64_t edge : {s.offset, s.offset + s.size}) {
        if (edge > 0) cuts.insert(static_cast<std::size_t>(edge - 1));
        cuts.insert(static_cast<std::size_t>(edge));
        cuts.insert(static_cast<std::size_t>(edge + 1));
      }
    }
    for (const std::size_t cut : cuts) {
      if (cut >= bytes.size()) continue;  // full archive is not a cut
      const std::vector<std::uint8_t> truncated(bytes.begin(),
                                                bytes.begin() + cut);
      EXPECT_THROW(fixture.decode(truncated), Error)
          << fixture.file << " cut at " << cut;
      const VerifyReport rep = verify_archive(truncated);
      EXPECT_FALSE(rep.ok) << fixture.file << " cut at " << cut;
      ++total_cuts;
    }
  }
  // Harness sanity: the sweep must actually have covered boundaries.
  EXPECT_GE(total_cuts, 100U);
}

// Degenerate inputs every decoder must survive without an archive at all.
TEST(FuzzDecode, EmptyAndTinyInputs) {
  const std::vector<std::uint8_t> empty;
  std::vector<std::uint8_t> tiny = {0x44, 0x50};
  for (const auto& bytes : {empty, tiny}) {
    EXPECT_THROW((void)dpz_decompress(bytes), Error);
    EXPECT_THROW((void)dpz_inspect(bytes), Error);
    EXPECT_THROW((void)chunked_decompress(bytes), Error);
    EXPECT_THROW((void)SharedBasisCodec::deserialize(bytes), Error);
    EXPECT_THROW((void)szlike_decompress(bytes), Error);
    EXPECT_THROW((void)zfplike_decompress(bytes), Error);
    EXPECT_THROW((void)dctzlike_decompress(bytes), Error);
    EXPECT_THROW((void)mgard_like_decompress(bytes), Error);
    EXPECT_THROW((void)tthresh_like_decompress(bytes), Error);
    EXPECT_THROW((void)huffman_decode(bytes), Error);
  }
}

}  // namespace
}  // namespace dpz
