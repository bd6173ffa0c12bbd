// Resource-governance suite: memory budgets, deadlines, and cooperative
// cancellation across every pipeline (util/resource.h).
//
// The contract under test, end to end:
//   * MemoryArena accounts and rejects; governors nest and charge the
//     whole chain; all-default limits install nothing.
//   * A forged archive claiming ~1 TB decoded is rejected by the decode
//     pre-flight admission check under a 64 MB budget — with
//     kResourceExhausted and exactly one admission_rejected count —
//     before any allocation of that size is attempted.
//   * Cancellation requested mid-compress aborts within 250 ms; an
//     expired deadline aborts at the first checkpoint. Each trip is
//     counted exactly once regardless of worker count. A cancel landing
//     inside Stage 2's team reduction releases every participant.
//   * A seeded sweep failing the Nth charged allocation with
//     std::bad_alloc proves every pipeline either completes byte-exactly
//     or fails clean (no leaks under ASan, no torn state).
//   * Limits that never trip change nothing: archives and
//     reconstructions are byte-identical with and without a governor.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "codec/bytes.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/shared_basis.h"
#include "core/verify.h"
#include "io/fault_injection.h"
#include "linalg/eigen_sym.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/crc32c.h"
#include "util/error.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

FloatArray smooth_f32(std::vector<std::size_t> shape, std::uint64_t seed) {
  FloatArray a(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.02) +
                              0.01 * rng.normal());
  return a;
}

// ---------------------------------------------------------------------------
// MemoryArena

TEST(MemoryArena, AccountsChargesAndReleases) {
  MemoryArena arena(1000);
  arena.charge(400);
  EXPECT_EQ(arena.in_use(), 400U);
  arena.charge(500);
  EXPECT_EQ(arena.in_use(), 900U);
  EXPECT_EQ(arena.peak(), 900U);
  arena.release(500);
  EXPECT_EQ(arena.in_use(), 400U);
  EXPECT_EQ(arena.peak(), 900U) << "peak is a high-water mark";
  arena.release(400);
  EXPECT_EQ(arena.in_use(), 0U);
}

TEST(MemoryArena, RejectsOverBudgetWithoutCorruptingState) {
  MemoryArena arena(1000);
  arena.charge(900);
  EXPECT_THROW(arena.charge(101), ResourceExhausted);
  EXPECT_EQ(arena.in_use(), 900U) << "failed charge must not stick";
  arena.charge(100);  // exactly to the brim is fine
  EXPECT_EQ(arena.in_use(), 1000U);
  arena.release(1000);
}

TEST(MemoryArena, ZeroBudgetOnlyAccounts) {
  MemoryArena arena(0);
  arena.charge(1ULL << 40);  // would dwarf any real budget
  EXPECT_EQ(arena.peak(), 1ULL << 40);
  arena.release(1ULL << 40);
}

// ---------------------------------------------------------------------------
// CancelToken / CancelSource

TEST(CancelToken, DefaultTokenIsInertAndInvalid) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancel_requested());
}

TEST(CancelToken, CopiesShareTheSourceFlag) {
  CancelSource source;
  const CancelToken a = source.token();
  const CancelToken b = a;
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.cancel_requested());
  source.request_cancel();
  EXPECT_TRUE(a.cancel_requested());
  EXPECT_TRUE(b.cancel_requested());
  EXPECT_TRUE(source.cancel_requested());
}

// ---------------------------------------------------------------------------
// GovernorScope installation and nesting

TEST(GovernorScope, AllDefaultLimitsInstallNothing) {
  EXPECT_EQ(current_governor(), nullptr);
  const ResourceLimits none;
  EXPECT_FALSE(none.enabled());
  const GovernorScope scope(none);
  EXPECT_EQ(current_governor(), nullptr)
      << "ungoverned scopes must not shadow (chunked frames rely on it)";
}

TEST(GovernorScope, InstallsAndRestoresOnExit) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1 << 20;
  {
    const GovernorScope scope(limits);
    ASSERT_NE(current_governor(), nullptr);
    EXPECT_EQ(current_governor()->limits().max_memory_bytes,
              std::uint64_t{1} << 20);
  }
  EXPECT_EQ(current_governor(), nullptr);
}

TEST(GovernorScope, NestedScopesChargeTheWholeChain) {
  ResourceLimits outer;
  outer.max_memory_bytes = 1000;
  ResourceLimits inner;
  inner.max_memory_bytes = 600;

  const GovernorScope outer_scope(outer);
  const ResourceGovernor* outer_gov = current_governor();
  // A reservation made before the inner scope exists: only the outer
  // arena sees it, which is what lets the chain check below diverge.
  const ScopedCharge preexisting(500);
  {
    const GovernorScope inner_scope(inner);
    const ResourceGovernor* inner_gov = current_governor();
    ASSERT_NE(inner_gov, outer_gov);

    const ScopedCharge charge(450);
    EXPECT_EQ(inner_gov->arena().in_use(), 450U);
    EXPECT_EQ(outer_gov->arena().in_use(), 950U)
        << "a nested charge must land on every arena in the chain";

    // Fits the inner budget (450+100 <= 600) but busts the outer one
    // (950+100 > 1000): the tightest chain member wins.
    EXPECT_THROW(ScopedCharge(100), ResourceExhausted)
        << "inner headroom must not override the outer budget";
    EXPECT_EQ(inner_gov->arena().in_use(), 450U)
        << "rejected chain charges must roll back completely";
    EXPECT_EQ(outer_gov->arena().in_use(), 950U);
  }
  EXPECT_EQ(outer_gov->arena().in_use(), 500U);
  EXPECT_EQ(current_governor(), outer_gov);
}

TEST(ScopedCharge, CopyRechargesAndMoveTransfers) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1000;
  const GovernorScope scope(limits);
  const ResourceGovernor* gov = current_governor();

  ScopedCharge a(600);
  EXPECT_EQ(gov->arena().in_use(), 600U);
  EXPECT_THROW(ScopedCharge{a}, ResourceExhausted)
      << "a copy is a second allocation and must be charged as one";

  ScopedCharge b(std::move(a));
  EXPECT_EQ(gov->arena().in_use(), 600U)
      << "a move transfers the reservation without re-charging";
  b.reset();
  EXPECT_EQ(gov->arena().in_use(), 0U);
  b.reset();  // idempotent
}

TEST(ScopedCharge, ReservationOutlivesItsScope) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1000;
  ScopedCharge escaped;
  {
    const GovernorScope scope(limits);
    escaped = ScopedCharge(200);
  }
  // The charge keeps its governor alive past the scope's death; releasing
  // it now must not touch freed memory (ASan would object).
  escaped.reset();
}

// ---------------------------------------------------------------------------
// Pre-flight admission: the zip-bomb rejection

// Forges a structurally valid v2 DPZ header claiming a 2^38-element
// (1 TiB decoded) single-precision pipeline archive, with a correct
// header CRC and empty sections. The geometry satisfies every invariant
// the decoder checks, so only the admission check stands between the
// header and terabyte-sized allocations.
std::vector<std::uint8_t> forge_terabyte_claim() {
  ByteWriter w;
  w.put_u32(0x315A5044);  // "DPZ1"
  w.put_u8(2);            // format v2
  w.put_u8(0);            // flags: f32, narrow codes, not stored
  w.put_f64(1e-3);        // error bound
  w.put_u8(1);            // rank
  w.put_u64(1ULL << 38);  // one extent: 2^38 values = 1 TiB of f32
  w.put_u64(1ULL << 18);  // m
  w.put_u64(1ULL << 20);  // n (m < n, m * n == total)
  w.put_u64(1ULL << 38);  // original total
  w.put_u32(1);           // k
  w.put_u64(0);           // outlier count
  w.put_u32(crc32c(w.bytes()));  // reseal the forged header
  // Three empty sections (side/codes/outliers): raw size, section CRC,
  // zero-length blob. Admission fires before any of them is read.
  for (int s = 0; s < 3; ++s) {
    ByteWriter section;
    section.put_u64(0);
    const std::uint32_t crc =
        crc32c(std::span<const std::uint8_t>{}, crc32c(section.bytes()));
    w.put_u64(0);
    w.put_u32(crc);
    w.put_u64(0);
  }
  return w.take();
}

TEST(Admission, TerabyteClaimIsRejectedUnderSmallBudget) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const std::vector<std::uint8_t> bomb = forge_terabyte_claim();
  ASSERT_LT(bomb.size(), 1024U) << "the bomb itself must be tiny";

  // The claim prices at >= 1 TiB decoded output alone.
  const std::optional<DecodePreflight> pf = decode_preflight(bomb);
  ASSERT_TRUE(pf.has_value());
  EXPECT_GE(pf->decoded_bytes, 1ULL << 40);
  EXPECT_GE(pf->peak_bytes, pf->decoded_bytes);

  ResourceLimits limits;
  limits.max_memory_bytes = 64ULL << 20;  // 64 MB
  try {
    (void)dpz_decompress(bomb, 0, 1, limits);
    FAIL() << "a terabyte claim decoded under a 64 MB budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted) << e.what();
  }

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kAdmissionRejected), 1U);
  EXPECT_EQ(snap.counter(obs::Counter::kCancelledOps), 0U);
  EXPECT_EQ(snap.counter(obs::Counter::kDeadlineExceededOps), 0U);
}

TEST(Admission, GenuineArchiveAdmittedWhenItFitsRejectedWhenNot) {
  const FloatArray input = smooth_f32({64, 96}, 31);
  const std::vector<std::uint8_t> archive =
      dpz_compress(input, DpzConfig::strict());

  const std::optional<DecodePreflight> pf = decode_preflight(archive);
  ASSERT_TRUE(pf.has_value());
  EXPECT_EQ(pf->decoded_bytes, input.size() * sizeof(float));

  ResourceLimits generous;
  generous.max_memory_bytes = 256ULL << 20;
  const FloatArray out = dpz_decompress(archive, 0, 1, generous);
  ASSERT_EQ(out.shape(), input.shape());

  ResourceLimits tiny;
  tiny.max_memory_bytes = 1024;  // smaller than the output alone
  try {
    (void)dpz_decompress(archive, 0, 1, tiny);
    FAIL() << "decode fit in a 1 KB budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
  }
}

TEST(Admission, ChunkedContainerIsPricedBeforeFrameDecode) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  const FloatArray input = smooth_f32({3 * 4096}, 32);
  const std::vector<std::uint8_t> container =
      chunked_compress(input, config);

  const std::optional<DecodePreflight> pf = decode_preflight(container);
  ASSERT_TRUE(pf.has_value());
  EXPECT_EQ(pf->decoded_bytes, input.size() * sizeof(float));
  EXPECT_GT(pf->peak_bytes, pf->decoded_bytes);

  ChunkedConfig governed = config;
  governed.dpz.limits.max_memory_bytes = 4096;  // output alone is 48 KB
  try {
    (void)chunked_decompress(container, governed);
    FAIL() << "container decode fit in a 4 KB budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted);
  }

  // Best-effort must not downgrade a governance abort to "lost frames".
  governed.decode_policy = DecodePolicy::kBestEffort;
  EXPECT_THROW((void)chunked_decompress(container, governed),
               ResourceExhausted);
}

TEST(Admission, SharedBasisSnapshotIsPricedBeforeSectionsInflate) {
  const obs::ScopedTelemetry telemetry(true);
  const FloatArray input = smooth_f32({64, 96}, 33);
  SharedBasisCodec codec =
      SharedBasisCodec::train(input, DpzConfig::strict());
  const std::vector<std::uint8_t> archive = codec.compress(input);
  obs::MetricsRegistry::instance().reset();

  ResourceLimits tiny;
  tiny.max_memory_bytes = 1024;  // smaller than the output alone
  codec.set_limits(tiny);
  try {
    (void)codec.decompress(archive);
    FAIL() << "snapshot decode fit in a 1 KB budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kResourceExhausted) << e.what();
  }
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().counter(
                obs::Counter::kAdmissionRejected),
            1U);

  ResourceLimits generous;
  generous.max_memory_bytes = 256ULL << 20;
  codec.set_limits(generous);
  EXPECT_EQ(codec.decompress(archive).shape(), input.shape());
}

TEST(Admission, PreflightReturnsNulloptForUnpriceableBytes) {
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  EXPECT_FALSE(decode_preflight(garbage).has_value());
  EXPECT_FALSE(decode_preflight({}).has_value());
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation

TEST(Deadline, ExpiredDeadlineAbortsAtFirstCheckpoint) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  DpzConfig config = DpzConfig::strict();
  config.limits.deadline_ns = 1;  // epoch + 1ns: expired long ago
  config.threads = 2;             // workers poll too; count stays 1
  try {
    (void)dpz_compress(smooth_f32({64, 96}, 41), config);
    FAIL() << "compress ran past an expired deadline";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded) << e.what();
  }
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().counter(
                obs::Counter::kDeadlineExceededOps),
            1U)
      << "a tripped deadline is reported exactly once per operation";
}

TEST(Cancel, PreCancelledTokenAbortsImmediately) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  CancelSource source;
  source.request_cancel();
  DpzConfig config = DpzConfig::strict();
  config.limits.cancel = source.token();
  try {
    (void)dpz_compress(smooth_f32({64, 96}, 42), config);
    FAIL() << "compress ran with a pre-cancelled token";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled) << e.what();
  }
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().counter(
                obs::Counter::kCancelledOps),
            1U);
}

TEST(Cancel, MidCompressCancelReturnsWithinLatencyBound) {
  // The acceptance bound: a cancel requested while a compress is in
  // flight must surface within 250 ms. The input is sized so the
  // pipeline is still working when the cancel lands; if the machine is
  // fast enough to finish first, the run proves nothing and is retried
  // with a doubled input (never a spurious failure).
  using clock = std::chrono::steady_clock;
  std::size_t side = 512;
  for (int attempt = 0; attempt < 4; ++attempt, side *= 2) {
    const FloatArray input = smooth_f32({side, side}, 43);
    CancelSource source;
    DpzConfig config = DpzConfig::strict();
    config.limits.cancel = source.token();

    clock::time_point cancelled_at;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      cancelled_at = clock::now();
      source.request_cancel();
    });
    bool aborted = false;
    try {
      (void)dpz_compress(input, config);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kCancelled) << e.what();
      aborted = true;
    }
    const clock::time_point returned_at = clock::now();
    canceller.join();
    if (!aborted) continue;  // finished before the cancel landed

    const auto latency =
        std::chrono::duration_cast<std::chrono::milliseconds>(returned_at -
                                                              cancelled_at);
    EXPECT_LE(latency.count(), 250)
        << "cancel-to-return latency out of bound at side " << side;
    return;
  }
  FAIL() << "compress always outran a 15 ms cancel; input sizing is broken";
}

TEST(Cancel, SharedBasisPipelineHonoursCancellation) {
  const FloatArray train_input = smooth_f32({96, 96}, 44);
  SharedBasisCodec codec =
      SharedBasisCodec::train(train_input, DpzConfig::strict());

  CancelSource source;
  source.request_cancel();
  ResourceLimits limits;
  limits.cancel = source.token();
  codec.set_limits(limits);
  try {
    (void)codec.compress(smooth_f32({96, 96}, 45));
    FAIL() << "shared-basis compress ignored its cancel token";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  codec.set_limits(ResourceLimits{});
  EXPECT_FALSE(codec.limits().enabled());
}

TEST(Cancel, LandsDuringTeamReductionWithoutHang) {
  // From M = 256 Stage 2's Householder reduction runs on a team whose
  // participants meet at one barrier per step and poll the governor
  // there. A cancel landing mid-reduction must surface as kCancelled,
  // with every participant released, and leave the pool usable.
  const ThreadPool pool(4);
  if (pool.team_width() < 2) GTEST_SKIP() << "one hardware thread";
  const PoolScope use(pool);
  constexpr std::size_t kM = 720;
  Matrix a(kM, kM);
  Rng rng(46);
  for (std::size_t i = 0; i < kM; ++i)
    for (std::size_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = rng.normal();

  // The reduction takes tens of milliseconds; if the host is fast enough
  // to finish before the cancel lands, retry with the cancel sooner.
  for (int delay_ms = 4; delay_ms >= 0; --delay_ms) {
    CancelSource source;
    ResourceLimits limits;
    limits.cancel = source.token();
    bool cancelled = false;
    {
      const GovernorScope scope(limits);
      std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        source.request_cancel();
      });
      try {
        (void)tridiagonalize(a);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), StatusCode::kCancelled) << e.what();
        cancelled = true;
      }
      canceller.join();
    }
    if (!cancelled) continue;
    EXPECT_NO_THROW((void)tridiagonalize(a));
    return;
  }
  FAIL() << "the team reduction always outran its cancel";
}

// ---------------------------------------------------------------------------
// Allocation-fault sweep: fail the Nth charged allocation

// Sweeps alloc_fail_at over every charged allocation the operation
// makes (threads = 1 so charges land on this thread), asserting each
// run either throws std::bad_alloc cleanly or completes byte-exactly.
// Returns how many allocation points the sweep covered.
std::uint64_t sweep_alloc_faults(
    const std::function<std::vector<std::uint8_t>()>& op,
    const std::vector<std::uint8_t>& reference) {
  for (std::uint64_t nth = 1; nth <= 10000; ++nth) {
    io::FaultPlan plan;
    plan.alloc_fail_at = nth;
    const io::ScopedFaultPlan guard(plan);
    try {
      const std::vector<std::uint8_t> out = op();
      EXPECT_EQ(out, reference)
          << "a surviving run diverged at fault index " << nth;
      return nth - 1;  // ran out of allocation points: sweep complete
    } catch (const std::bad_alloc&) {
      // Clean failure at this allocation point; ASan verifies no leak.
    }
  }
  ADD_FAILURE() << "pipeline made more than 10000 charged allocations";
  return 0;
}

template <typename T>
std::vector<std::uint8_t> value_bytes(const NdArray<T>& a) {
  std::vector<std::uint8_t> bytes(a.size() * sizeof(T));
  std::memcpy(bytes.data(), a.flat().data(), bytes.size());
  return bytes;
}

TEST(AllocFaults, DpzPipelineFailsCleanAtEveryAllocationPoint) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1ULL << 30;  // governed, never the constraint
  DpzConfig config = DpzConfig::strict();
  config.limits = limits;
  config.threads = 1;
  const FloatArray input = smooth_f32({48, 64}, 51);

  const std::vector<std::uint8_t> archive = dpz_compress(input, config);
  const std::uint64_t compress_points =
      sweep_alloc_faults([&] { return dpz_compress(input, config); },
                         archive);
  EXPECT_GT(compress_points, 0U) << "compress charges no allocations";

  const std::vector<std::uint8_t> decoded =
      value_bytes(dpz_decompress(archive, 0, 1, limits));
  const std::uint64_t decode_points = sweep_alloc_faults(
      [&] { return value_bytes(dpz_decompress(archive, 0, 1, limits)); },
      decoded);
  EXPECT_GT(decode_points, 0U) << "decode charges no allocations";
}

TEST(AllocFaults, ChunkedPipelineFailsCleanAtEveryAllocationPoint) {
  ChunkedConfig config;
  config.chunk_values = 4096;
  config.threads = 1;
  config.dpz.threads = 1;
  config.dpz.limits.max_memory_bytes = 1ULL << 30;
  const FloatArray input = smooth_f32({2 * 4096}, 52);

  const std::vector<std::uint8_t> container =
      chunked_compress(input, config);
  EXPECT_GT(sweep_alloc_faults(
                [&] { return chunked_compress(input, config); }, container),
            0U);

  const std::vector<std::uint8_t> decoded =
      value_bytes(chunked_decompress(container, config));
  EXPECT_GT(
      sweep_alloc_faults(
          [&] { return value_bytes(chunked_decompress(container, config)); },
          decoded),
      0U);
}

TEST(AllocFaults, SharedBasisPipelineFailsCleanAtEveryAllocationPoint) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1ULL << 30;
  DpzConfig train_config = DpzConfig::strict();
  train_config.threads = 1;
  const FloatArray train_input = smooth_f32({96, 96}, 53);
  const FloatArray snapshot_input = smooth_f32({96, 96}, 54);

  SharedBasisCodec codec =
      SharedBasisCodec::train(train_input, train_config);
  codec.set_limits(limits);

  const std::vector<std::uint8_t> snapshot =
      codec.compress(snapshot_input);
  EXPECT_GT(sweep_alloc_faults([&] { return codec.compress(snapshot_input); },
                               snapshot),
            0U);

  const std::vector<std::uint8_t> decoded =
      value_bytes(codec.decompress(snapshot));
  EXPECT_GT(sweep_alloc_faults(
                [&] { return value_bytes(codec.decompress(snapshot)); },
                decoded),
            0U);
}

// ---------------------------------------------------------------------------
// Determinism: limits that never trip change nothing

TEST(GovernedDeterminism, UnexercisedLimitsAreByteInvisible) {
  const FloatArray input = smooth_f32({64, 96}, 61);

  const std::vector<std::uint8_t> plain =
      dpz_compress(input, DpzConfig::strict());

  CancelSource never_cancelled;
  DpzConfig governed = DpzConfig::strict();
  governed.limits.max_memory_bytes = 1ULL << 30;
  governed.limits.deadline_ns = ResourceLimits::deadline_after_ms(60000.0);
  governed.limits.cancel = never_cancelled.token();
  const std::vector<std::uint8_t> limited = dpz_compress(input, governed);

  EXPECT_EQ(plain, limited)
      << "resource limits must never change archive bytes";
  EXPECT_EQ(value_bytes(dpz_decompress(plain)),
            value_bytes(dpz_decompress(limited, 0, 0, governed.limits)))
      << "resource limits must never change reconstruction bytes";
}

TEST(GovernedDeterminism, ChunkedContainerBytesUnchangedUnderLimits) {
  const FloatArray input = smooth_f32({3 * 4096}, 62);
  ChunkedConfig plain;
  plain.chunk_values = 4096;
  ChunkedConfig governed = plain;
  governed.dpz.limits.max_memory_bytes = 1ULL << 30;
  EXPECT_EQ(chunked_compress(input, plain),
            chunked_compress(input, governed));
}

}  // namespace
}  // namespace dpz
