// Telemetry subsystem tests (src/obs): the trace output must be valid
// Chrome trace-event JSON (checked with the in-repo reader, no external
// deps), metrics must match the compressor's own ground-truth stats,
// the concurrency contracts must hold under an 8-thread pool (the TSan
// CI job runs this binary), and the disabled path must stay at
// single-relaxed-load cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/dpz.h"
#include "core/shared_basis.h"
#include "data/datasets.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tools/cli_app.h"
#include "util/json_mini.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dpz {
namespace {

using obs::Counter;
using obs::Hist;
using obs::Span;

const json::Value* require(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  EXPECT_NE(v, nullptr) << "missing key: " << key;
  return v;
}

// ---- json_mini ----------------------------------------------------------

TEST(ObsJsonMini, ParsesTheFullValueGrammar) {
  const json::Value doc = json::parse(
      R"({"a": [1, -2.5, 1e3], "b": {"nested": true}, "s": "x\n\"y\"",)"
      R"( "none": null, "off": false})");
  ASSERT_TRUE(doc.is_object());
  const json::Value* a = doc.find("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->items.size(), 3U);
  EXPECT_DOUBLE_EQ(a->items[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->items[1].number, -2.5);
  EXPECT_DOUBLE_EQ(a->items[2].number, 1000.0);
  const json::Value* nested = doc.find("b")->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->boolean);
  EXPECT_EQ(doc.find("s")->text, "x\n\"y\"");
  EXPECT_EQ(doc.find("none")->type, json::Value::Type::kNull);
  EXPECT_FALSE(doc.find("off")->boolean);
}

TEST(ObsJsonMini, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::parse("01x"), std::runtime_error);
}

// ---- histogram bucketing ------------------------------------------------

TEST(ObsMetrics, BucketOfIsLog2WithZeroBucket) {
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(0), 0U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1), 1U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(2), 2U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(3), 2U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(4), 3U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1023), 10U);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1024), 11U);
  // The top bucket is open-ended: huge values clamp instead of indexing
  // out of the fixed array.
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(~0ULL), obs::kHistBuckets - 1);
}

TEST(ObsMetrics, BucketOfAtEveryPowerOfTwoBoundary) {
  // Exact powers of two open a new bucket; the value just below each
  // boundary stays in the previous one. Sweep every representable
  // boundary so an off-by-one in the bit scan cannot hide.
  for (unsigned b = 1; b < 40; ++b) {
    const std::uint64_t boundary = 1ULL << b;
    EXPECT_EQ(obs::MetricsRegistry::bucket_of(boundary - 1), b)
        << "below boundary 2^" << b;
    EXPECT_EQ(obs::MetricsRegistry::bucket_of(boundary),
              std::min<std::size_t>(b + 1, obs::kHistBuckets - 1))
        << "at boundary 2^" << b;
  }
  // Everything at and beyond 2^39 lands deterministically in the open
  // top bucket (index 40), however extreme.
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1ULL << 39),
            obs::kHistBuckets - 1);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1ULL << 40),
            obs::kHistBuckets - 1);
  EXPECT_EQ(obs::MetricsRegistry::bucket_of(1ULL << 63),
            obs::kHistBuckets - 1);
}

TEST(ObsMetrics, SnapshotAndResetAreRaceFreeUnderEightThreads) {
  // Writers hammer a counter and a histogram while other participants
  // snapshot, render, and reset concurrently. There is no exact count
  // to assert (resets race with increments by design); the TSan job
  // proves the absence of data races, and the renderers must never
  // crash on a half-advanced registry.
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const ScopedThreads scope(8);
  parallel_for(0, 8, [](std::size_t lane) {
    for (int i = 0; i < 2000; ++i) {
      if (lane < 6) {
        obs::count(Counter::kCrcChecks);
        obs::observe(Hist::kFrameBytes,
                     static_cast<std::uint64_t>(i % 4096));
      } else if (lane == 6) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::instance().snapshot();
        EXPECT_LE(snap.hist_count(Hist::kFrameBytes),
                  snap.hist_sum(Hist::kFrameBytes) + 6 * 2000ULL);
        EXPECT_FALSE(snap.to_prometheus().empty());
      } else {
        obs::MetricsRegistry::instance().reset();
      }
    }
  });
}

// ---- trace format -------------------------------------------------------

TEST(ObsTrace, CompressDecodeEmitsValidChromeTraceWithPoolSpans) {
  const obs::ScopedTelemetry telemetry(true);

  // 3-D f32 input through a 4-participant pool: stage spans, decode
  // spans, and pool_task spans with queue-wait attribution must all
  // appear even on a single-core host (explicit thread counts always
  // spawn workers). Cleared after synthesis: on a multi-core host the
  // dataset's own parallel_for records pool_task spans before t0.
  const Dataset ds = make_dataset("Isotropic", 0.05, 2021);
  DpzConfig config = DpzConfig::strict();
  config.threads = 4;
  obs::TraceRecorder::instance().clear();
  const std::uint64_t t0 = obs::TraceRecorder::now_ns();
  const std::vector<std::uint8_t> archive = dpz_compress(ds.data, config);
  const FloatArray back = dpz_decompress(archive, 0, 4);
  const std::uint64_t t1 = obs::TraceRecorder::now_ns();
  ASSERT_EQ(back.size(), ds.data.size());

  const json::Value doc = json::parse(obs::TraceRecorder::instance().json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(require(doc, "displayTimeUnit")->text, "ms");
  const json::Value* events = require(doc, "traceEvents");
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items.empty());

  std::map<std::string, int> by_name;
  int waits = 0;
  for (const json::Value& e : events->items) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(require(e, "ph")->text, "X");
    const json::Value* name = require(e, "name");
    const json::Value* ts = require(e, "ts");
    const json::Value* dur = require(e, "dur");
    ASSERT_TRUE(name->is_string());
    ASSERT_TRUE(ts->is_number());
    ASSERT_TRUE(dur->is_number());
    EXPECT_TRUE(require(e, "cat")->is_string());
    EXPECT_TRUE(require(e, "pid")->is_number());
    EXPECT_TRUE(require(e, "tid")->is_number());
    // The one-time simd_dispatch span fires at the process's first
    // kernel use — possibly during dataset synthesis above, outside the
    // [t0, t1] window — so it is exempt from the window check.
    if (name->text == "simd_dispatch") continue;
    // Timestamps are µs since the recorder epoch; every span recorded
    // here must fall inside the [t0, t1] recording window.
    EXPECT_GE(ts->number * 1000.0, static_cast<double>(t0) - 1000.0);
    EXPECT_LE((ts->number + dur->number) * 1000.0,
              static_cast<double>(t1) + 1000.0);
    ++by_name[name->text];
    if (name->text == "pool_task") {
      const json::Value* args = e.find("args");
      if (args != nullptr) {
        const json::Value* wait = args->find("queue_wait_us");
        if (wait != nullptr && wait->is_number()) {
          EXPECT_GE(wait->number, 0.0);
          ++waits;
        }
      }
    }
  }
  for (const char* stage :
       {"stage1_dct", "stage2_pca", "stage2_project", "stage3_quantize",
        "zlib_encode", "decode_sections", "decode_dequantize",
        "decode_backproject", "decode_idct"})
    EXPECT_GE(by_name[stage], 1) << "missing span: " << stage;
  EXPECT_GE(by_name["pool_task"], 1);
  EXPECT_GE(waits, 1) << "no pool span carried queue-wait attribution";
}

TEST(ObsTrace, NestedParallelForSpansStayInsideTheRecordingWindow) {
  const obs::ScopedTelemetry telemetry(true);
  obs::TraceRecorder::instance().clear();

  const std::uint64_t t0 = obs::TraceRecorder::now_ns();
  {
    const ScopedThreads scope(4);
    parallel_for(0, 16, [](std::size_t) {
      const obs::ScopedSpan outer(Span::kFrameEncode);
      // Nested calls run inline by contract; their spans must still
      // land in the same recorder with consistent timestamps.
      parallel_for(0, 4, [](std::size_t) {
        const obs::ScopedSpan inner(Span::kCrcCheck);
      });
    });
  }
  const std::uint64_t t1 = obs::TraceRecorder::now_ns();

  const json::Value doc = json::parse(obs::TraceRecorder::instance().json());
  const json::Value* events = require(doc, "traceEvents");
  ASSERT_TRUE(events->is_array());
  int outer = 0;
  int inner = 0;
  for (const json::Value& e : events->items) {
    const std::string& name = require(e, "name")->text;
    const double ts_ns = require(e, "ts")->number * 1000.0;
    const double end_ns = ts_ns + require(e, "dur")->number * 1000.0;
    EXPECT_GE(ts_ns, static_cast<double>(t0) - 1000.0) << name;
    EXPECT_LE(end_ns, static_cast<double>(t1) + 1000.0) << name;
    if (name == "frame_encode") ++outer;
    if (name == "crc_check") ++inner;
  }
  EXPECT_EQ(outer, 16);
  EXPECT_EQ(inner, 16 * 4);
}

// ---- metrics ground truth -----------------------------------------------

TEST(ObsMetrics, CompressionCountersMatchStats) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  const DpzConfig config = DpzConfig::strict();
  DpzStats st;
  const std::vector<std::uint8_t> archive =
      dpz_compress(ds.data, config, &st);
  ASSERT_FALSE(st.stored_raw);

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kCompressCalls), 1U);
  EXPECT_EQ(snap.counter(Counter::kBytesIn), st.original_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesArchive), st.archive_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesArchive), archive.size());
  EXPECT_EQ(snap.counter(Counter::kBytesStage12), st.stage12_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesStage3), st.stage3_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesZlibPayload),
            st.zlib_payload_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesSide), st.side_bytes);
  EXPECT_EQ(snap.counter(Counter::kOutliers), st.outlier_count);
  EXPECT_EQ(snap.counter(Counter::kQuantSaturated), st.outlier_count);
  EXPECT_GE(snap.counter(Counter::kQuantValues),
            snap.counter(Counter::kQuantSaturated));
  EXPECT_EQ(snap.hist_count(Hist::kSelectedK), 1U);

  const FloatArray back = dpz_decompress(archive, 0, 1);
  const obs::MetricsSnapshot snap2 =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap2.counter(Counter::kDecompressCalls), 1U);
  EXPECT_EQ(snap2.counter(Counter::kBytesDecoded),
            back.size() * sizeof(float));
  EXPECT_EQ(snap2.counter(Counter::kBytesDecoded), st.original_bytes);
  // Strict archives are format v2: the decode verifies section CRCs.
  EXPECT_GT(snap2.counter(Counter::kCrcChecks), 0U);
  EXPECT_EQ(snap2.counter(Counter::kCrcFailures), 0U);
}

TEST(ObsMetrics, SamplingCompressQuantizesOnlyTheShippedScores) {
  // Algorithm 2 only chooses k on the compress route, so the quantizer
  // sees exactly the k x N scores the archive ships: no calibration pass
  // quantizes the picked subsets on the side.
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  DpzConfig config = DpzConfig::strict();
  config.use_sampling = true;
  DpzStats st;
  (void)dpz_compress(ds.data, config, &st);
  ASSERT_GT(st.vif_median, 0.0) << "the sampling route did not run";

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kQuantValues), st.k * st.layout.n);
}

TEST(ObsMetrics, SharedBasisCountersMatchStats) {
  const obs::ScopedTelemetry telemetry(true);
  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  const SharedBasisCodec codec =
      SharedBasisCodec::train(ds.data, DpzConfig::strict());
  obs::MetricsRegistry::instance().reset();

  DpzStats st;
  const std::vector<std::uint8_t> archive = codec.compress(ds.data, &st);
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kCompressCalls), 1U);
  EXPECT_EQ(snap.counter(Counter::kBytesIn), st.original_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesArchive), st.archive_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesArchive), archive.size());
  EXPECT_EQ(snap.counter(Counter::kBytesStage12), st.stage12_bytes);
  EXPECT_GT(st.stage12_bytes, 0U);
  EXPECT_EQ(snap.counter(Counter::kBytesStage3), st.stage3_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesZlibPayload),
            st.zlib_payload_bytes);
  EXPECT_EQ(snap.counter(Counter::kBytesSide), st.side_bytes);
  EXPECT_EQ(snap.counter(Counter::kOutliers), st.outlier_count);
  EXPECT_EQ(snap.hist_count(Hist::kSelectedK), 1U);
}

TEST(ObsMetrics, ChunkedFrameCountersMatchTheContainer) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const Dataset ds = make_dataset("HACC-x", 0.05, 2021);
  ChunkedConfig config;
  config.dpz = DpzConfig::strict();
  config.chunk_values = ds.data.size() / 4;
  const std::vector<std::uint8_t> container =
      chunked_compress(ds.data, config);
  const std::size_t frames = chunked_frame_count(container);
  ASSERT_GE(frames, 2U);

  obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kFramesEncoded), frames);
  EXPECT_EQ(snap.hist_count(Hist::kFrameBytes), frames);

  const FloatArray back = chunked_decompress(container, 2U);
  ASSERT_EQ(back.size(), ds.data.size());
  snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter(Counter::kFramesDecoded), frames);
}

TEST(ObsMetrics, SnapshotJsonParsesAndCoversEveryName) {
  const obs::ScopedTelemetry telemetry(true);
  obs::count(Counter::kCompressCalls);
  obs::observe(Hist::kSelectedK, 12);

  const json::Value doc = json::parse(
      obs::MetricsRegistry::instance().snapshot().to_json());
  const json::Value* counters = require(doc, "counters");
  ASSERT_TRUE(counters->is_object());
  EXPECT_EQ(counters->members.size(), obs::kCounterCount);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    EXPECT_NE(counters->find(obs::counter_name(static_cast<Counter>(i))),
              nullptr);
  const json::Value* hists = require(doc, "histograms");
  ASSERT_TRUE(hists->is_object());
  EXPECT_EQ(hists->members.size(), obs::kHistCount);
  for (std::size_t i = 0; i < obs::kHistCount; ++i) {
    const json::Value* h =
        hists->find(obs::hist_name(static_cast<Hist>(i)));
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(require(*h, "count")->is_number());
    EXPECT_TRUE(require(*h, "buckets")->is_array());
  }
}

// ---- concurrency (the TSan job runs this binary) ------------------------

TEST(ObsMetrics, CountersAreExactUnderAnEightThreadPool) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();

  const ScopedThreads scope(8);
  parallel_for(0, 10000,
               [](std::size_t) { obs::count(Counter::kCrcChecks); });
  EXPECT_EQ(
      obs::MetricsRegistry::instance().snapshot().counter(
          Counter::kCrcChecks),
      10000U);
}

TEST(ObsStageTimes, ScopedSpanSinkIsRaceFreeAcrossEightThreads) {
  // Many workers timing into one StageTimes sink while the trace
  // recorder also runs: TSan verifies the slots are race-free.
  const obs::ScopedTelemetry telemetry(true);
  obs::StageTimes times;
  std::vector<double> sink(256, 0.0);
  const ScopedThreads scope(8);
  parallel_for(0, sink.size(), [&](std::size_t i) {
    const obs::ScopedSpan span(Span::kStage1Dct, &times);
    for (int r = 0; r < 100; ++r)
      sink[i] += static_cast<double>(i * r) * 1e-9;
  });
  EXPECT_GT(times.seconds(Span::kStage1Dct), 0.0);
  EXPECT_EQ(times.grand_total(), times.seconds(Span::kStage1Dct));

  // A copy is a snapshot, and names resolve through kSpanInfo.
  const obs::StageTimes snapshot = times;
  EXPECT_EQ(snapshot.total("stage1_dct"), times.seconds(Span::kStage1Dct));
  EXPECT_EQ(snapshot.total("no_such_span"), 0.0);

  // With telemetry off the sink still times, and nothing is traced.
  const obs::ScopedTelemetry off(false);
  obs::TraceRecorder::instance().clear();
  {
    const obs::ScopedSpan span(Span::kZlibEncode, &times);
    const std::uint64_t start = obs::TraceRecorder::now_ns();
    while (obs::TraceRecorder::now_ns() == start) {
    }
  }
  EXPECT_GT(times.seconds(Span::kZlibEncode), 0.0);
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0U);
}

// DpzStats, the trace and `dpz trace-report` come from the same clock
// reads, so they agree per compress stage, the projection included
// (its span sits between Stage 2's and Stage 3's). Wall time, not self time:
// pool_task and crc_check spans nest inside stage spans.
TEST(ObsStageTimes, StatsTraceAndTraceReportAgreePerStage) {
  const obs::ScopedTelemetry telemetry(true);
  const Dataset ds = make_dataset("Isotropic", 0.05, 2021);
  DpzConfig config = DpzConfig::strict();
  config.threads = 4;
  obs::TraceRecorder::instance().clear();
  DpzStats stats;
  const std::vector<std::uint8_t> archive =
      dpz_compress(ds.data, config, &stats);
  ASSERT_EQ(dpz_decompress(archive, 0, 4).size(), ds.data.size());

  const std::string path = testing::TempDir() + "dpz_agreement_trace.json";
  ASSERT_TRUE(obs::TraceRecorder::instance().write_file(path));
  std::ostringstream out;
  std::ostringstream err;
  const char* argv[] = {"dpz", "trace-report", path.c_str()};
  const int rc = tools::run_cli(3, argv, out, err);
  std::remove(path.c_str());
  ASSERT_EQ(rc, 0) << err.str();
  // Table rows: name, count, wall ms, self ms.
  std::map<std::string, double> wall_ms;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream row(line);
    std::string name;
    double count = 0.0;
    double wall = 0.0;
    if (row >> name >> count >> wall) wall_ms.emplace(name, wall);
  }

  const json::Value doc = json::parse(obs::TraceRecorder::instance().json());
  for (const Span s : {Span::kStage1Dct, Span::kStage2Pca, Span::kProject,
                       Span::kStage3Quantize, Span::kZlibEncode}) {
    const std::string name = obs::span_name(s);
    SCOPED_TRACE(name);
    double trace_ns = 0.0;
    int spans = 0;
    for (const json::Value& e : require(doc, "traceEvents")->items)
      if (e.find("name")->text == name) {
        trace_ns += e.find("dur")->number * 1000.0;
        ++spans;
      }
    ASSERT_GE(spans, 1);
    EXPECT_NEAR(stats.timers.seconds(s) * 1e9, trace_ns, 1.0 * spans);
    ASSERT_EQ(wall_ms.count(name), 1U) << out.str();
    // trace-report prints wall ms to three decimals.
    EXPECT_NEAR(stats.timers.seconds(s) * 1e3, wall_ms[name], 0.0005 + 1e-9);
  }
}

// ---- repair visibility (trace spans on the recovery paths) --------------

TEST(ObsTrace, RepairAndScrubEmitASpanPerRepairedFrame) {
  const obs::ScopedTelemetry telemetry(true);

  const Dataset ds = make_dataset("Isotropic", 0.05, 2021);
  ChunkedConfig config;
  config.dpz = DpzConfig::strict();
  config.chunk_values = ds.data.size() / 4;
  config.parity_k = 4;
  config.parity_m = 2;
  std::vector<std::uint8_t> container = chunked_compress(ds.data, config);

  // Damage two frame payloads (within the parity budget).
  container[container.size() / 3] ^= 0xFF;
  container[2 * container.size() / 3] ^= 0xFF;

  auto spans_named = [](const char* wanted) {
    const json::Value doc =
        json::parse(obs::TraceRecorder::instance().json());
    const json::Value* events = doc.find("traceEvents");
    int n = 0;
    for (const json::Value& e : events->items)
      if (e.find("name")->text == wanted) ++n;
    return n;
  };

  // chunked_repair rewrites the damaged frames: one archive_repair span
  // for the operation, at least one frame_repair span per rebuilt frame.
  obs::TraceRecorder::instance().clear();
  RepairReport report;
  const std::vector<std::uint8_t> healed =
      chunked_repair(container, &report);
  ASSERT_EQ(report.frames_repaired.size(), 2U);
  EXPECT_GE(spans_named("archive_repair"), 1);
  EXPECT_GE(spans_named("frame_repair"),
            static_cast<int>(report.frames_repaired.size()));

  // chunked_scrub recomputes parity per group under the same spans.
  obs::TraceRecorder::instance().clear();
  const ScrubReport scrub = chunked_scrub(healed);
  EXPECT_TRUE(scrub.ok());
  ASSERT_GE(scrub.groups, 1U);
  EXPECT_GE(spans_named("archive_repair"), 1);
  EXPECT_GE(spans_named("frame_repair"), static_cast<int>(scrub.groups));

  // And a strict decode of the damaged container self-heals under
  // per-frame repair spans too.
  obs::TraceRecorder::instance().clear();
  const FloatArray back = chunked_decompress(container);
  ASSERT_EQ(back.size(), ds.data.size());
  EXPECT_GE(spans_named("frame_repair"), 2);
}

// ---- disabled-path cost -------------------------------------------------

TEST(ObsOverhead, DisabledSitesCostNanosecondsPerCall) {
  const obs::ScopedTelemetry telemetry(false);
  ASSERT_FALSE(obs::telemetry_enabled());
  // Pin the log threshold at the always-on default: the kInfo site in
  // the loop below must stay disarmed.
  const obs::ScopedLogLevel quiet(obs::LogLevel::kWarn);
  ASSERT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));

  constexpr std::size_t kIters = 1000000;
  Timer timer;
  for (std::size_t i = 0; i < kIters; ++i) {
    const obs::ScopedSpan span(Span::kCrcCheck);
    obs::count(Counter::kCrcChecks);
    obs::log_event(obs::Event::kCommandStart, obs::LogLevel::kInfo,
                   StatusCode::kOk);
  }
  const double ns_per_call = timer.elapsed() * 1e9 /
                             static_cast<double>(kIters);
  // A disarmed site is one relaxed load + branch; 500 ns is orders of
  // magnitude above that even for unoptimized builds on a loaded CI
  // box, while still catching an accidental clock read or lock.
  EXPECT_LT(ns_per_call, 500.0);

  // And it must record nothing.
  obs::TraceRecorder::instance().clear();
  {
    const obs::ScopedSpan span(Span::kCrcCheck);
  }
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0U);
}

}  // namespace
}  // namespace dpz
