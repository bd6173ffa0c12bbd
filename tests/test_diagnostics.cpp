// Diagnostics-layer tests: error breadcrumbs from the flight recorder
// (core, C API, and CLI --diagnose), JSONL log-sink validity, the
// Prometheus text exposition (checked with a strict in-test parser, also
// as CLI --metrics prints it),
// the metrics JSON round trip including histogram sums, and the
// trace-report command over a real --trace file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/dpz_c.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "data/datasets.h"
#include "io/file_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tools/cli_app.h"
#include "util/error.h"
#include "util/json_mini.h"

namespace dpz {
namespace {

using obs::Counter;
using obs::Event;
using obs::FlightRecorder;
using obs::Hist;
using obs::LogContext;
using obs::LogLevel;

// A parity-protected chunked container whose frames we can damage.
std::vector<std::uint8_t> parity_container() {
  const Dataset ds = make_dataset("Isotropic", 0.05, 2021);
  ChunkedConfig config;
  config.dpz = DpzConfig::strict();
  config.chunk_values = ds.data.size() / 4;
  config.parity_k = 4;
  config.parity_m = 1;
  return chunked_compress(ds.data, config);
}

// Flips a burst of payload bytes at `fraction` of the container.
void damage_at(std::vector<std::uint8_t>& bytes, double fraction) {
  const std::size_t base =
      static_cast<std::size_t>(static_cast<double>(bytes.size()) * fraction);
  for (std::size_t i = 0; i < 32 && base + i < bytes.size(); ++i)
    bytes[base + i] ^= 0xFF;
}

// ---- error breadcrumbs --------------------------------------------------

TEST(Diagnostics, CorruptDecodeLeavesSectionOffsetFrameBreadcrumbs) {
  std::vector<std::uint8_t> bad = parity_container();
  // Three damaged frames exceed the one-shard parity budget.
  damage_at(bad, 0.30);
  damage_at(bad, 0.55);
  damage_at(bad, 0.80);

  FlightRecorder::instance().clear();
  ASSERT_FALSE(FlightRecorder::instance().has_last_error());
  EXPECT_THROW(chunked_decompress(bad), ChecksumError);
  ASSERT_TRUE(FlightRecorder::instance().has_last_error());

  // The ring must hold a checksum_mismatch record carrying the failing
  // frame index, its archive byte offset, and the section name.
  bool found = false;
  for (const FlightRecorder::Record& r :
       FlightRecorder::instance().snapshot()) {
    if (r.event != Event::kChecksumMismatch) continue;
    EXPECT_NE(r.frame, LogContext::kNoValue);
    EXPECT_NE(r.offset, LogContext::kNoValue);
    EXPECT_LT(r.offset, bad.size());
    EXPECT_STREQ(r.section, "frame");
    found = true;
  }
  EXPECT_TRUE(found) << "no checksum_mismatch breadcrumb was recorded";

  const std::string report = FlightRecorder::instance().last_error_report();
  EXPECT_NE(report.find("checksum_mismatch"), std::string::npos);
  EXPECT_NE(report.find("section=frame"), std::string::npos);
  EXPECT_NE(report.find("frame="), std::string::npos);
  EXPECT_NE(report.find("offset="), std::string::npos);
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
}

// The trace and the flight recorder name a thread by one id. Thread A
// only traces and thread B traces and logs, so numbering threads per
// recorder would give B a different id in each.
TEST(Diagnostics, TraceAndFlightRecorderNameAThreadAlike) {
  const obs::ScopedTelemetry telemetry(true);
  obs::TraceRecorder& trace = obs::TraceRecorder::instance();
  trace.clear();
  FlightRecorder::instance().clear();
  const std::uint64_t now = obs::TraceRecorder::now_ns();
  std::thread([&] { trace.record(obs::Span::kStage1Dct, now, 1); }).join();
  std::thread([&] {
    obs::log_error(Event::kErrorRaised, StatusCode::kInternal, {},
                   "tid probe");
    trace.record(obs::Span::kZlibEncode, now, 1);
  }).join();

  std::map<std::string, double> trace_tid;
  const json::Value doc = json::parse(trace.json());
  for (const json::Value& e : doc.find("traceEvents")->items)
    trace_tid[e.find("name")->text] = e.find("tid")->number;
  ASSERT_EQ(trace_tid.count("stage1_dct"), 1U);
  ASSERT_EQ(trace_tid.count("zlib_encode"), 1U);
  EXPECT_NE(trace_tid["stage1_dct"], trace_tid["zlib_encode"]);

  std::ostringstream log;
  FlightRecorder::instance().write_jsonl(log);
  std::istringstream lines(log.str());
  std::string line;
  int probes = 0;
  while (std::getline(lines, line)) {
    const json::Value rec = json::parse(line);
    if (rec.find("detail") == nullptr ||
        rec.find("detail")->text != "tid probe")
      continue;
    ++probes;
    EXPECT_EQ(rec.find("tid")->number, trace_tid["zlib_encode"]);
  }
  EXPECT_EQ(probes, 1);
  trace.clear();
}

TEST(Diagnostics, LastErrorReportCrossesTheCApi) {
  std::vector<std::uint8_t> bad = parity_container();
  damage_at(bad, 0.30);
  damage_at(bad, 0.55);
  damage_at(bad, 0.80);

  FlightRecorder::instance().clear();
  float* out = nullptr;
  size_t count = 0;
  const int rc = dpz_chunked_decompress_float(
      bad.data(), bad.size(), nullptr, &out, &count, nullptr);
  ASSERT_NE(rc, DPZ_OK);
  ASSERT_EQ(out, nullptr);

  const std::string report = dpz_last_error_report();
  EXPECT_NE(report.find("error_raised"), std::string::npos);
  EXPECT_NE(report.find("checksum"), std::string::npos);
  EXPECT_NE(report.find("section=frame"), std::string::npos);
}

// ---- CLI: --diagnose, --log, trace-report -------------------------------

class DiagnosticsCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dpz_diag_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    constexpr std::size_t kValues = 4096;
    std::vector<float> values(kValues);
    for (std::size_t i = 0; i < kValues; ++i)
      values[i] =
          static_cast<float>(std::sin(0.06 * static_cast<double>(i)));
    write_f32(path("in.f32"), FloatArray({kValues}, std::move(values)));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run(std::vector<std::string> args) {
    std::vector<const char*> argv{"dpz"};
    for (const auto& a : args) argv.push_back(a.c_str());
    out_.str("");
    err_.str("");
    return tools::run_cli(static_cast<int>(argv.size()), argv.data(), out_,
                          err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_, err_;
};

TEST_F(DiagnosticsCliTest, DiagnoseFlagDumpsBreadcrumbsOnFailure) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"), "--shape=4096",
                 "--chunk=1024", "--parity=4+1"}),
            0)
      << err_.str();

  // Damage three frames: beyond the single-shard parity budget.
  std::vector<std::uint8_t> bytes = read_bytes(path("a.dpz"));
  damage_at(bytes, 0.30);
  damage_at(bytes, 0.55);
  damage_at(bytes, 0.80);
  write_bytes(path("a.dpz"), bytes);

  FlightRecorder::instance().clear();
  const int rc = run({"decompress", path("a.dpz"), path("out.f32"),
                      "--diagnose=1"});
  EXPECT_NE(rc, 0);
  const std::string err = err_.str();
  EXPECT_NE(err.find("error:"), std::string::npos);
  EXPECT_NE(err.find("flight recorder"), std::string::npos);
  EXPECT_NE(err.find("checksum_mismatch"), std::string::npos);
  EXPECT_NE(err.find("section=frame"), std::string::npos) << err;

  // Without the flag the same failure prints only the error line.
  FlightRecorder::instance().clear();
  EXPECT_NE(run({"decompress", path("a.dpz"), path("out.f32")}), 0);
  EXPECT_EQ(err_.str().find("flight recorder"), std::string::npos);
}

TEST_F(DiagnosticsCliTest, LogSinkStreamsValidJsonLines) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"), "--shape=4096",
                 "--log=" + path("log.jsonl")}),
            0)
      << err_.str();

  std::ifstream in(path("log.jsonl"));
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  bool saw_command_start = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const json::Value rec = json::parse(line);
    ASSERT_TRUE(rec.is_object()) << line;
    const json::Value* ts = rec.find("ts_us");
    const json::Value* tid = rec.find("tid");
    const json::Value* level = rec.find("level");
    const json::Value* event = rec.find("event");
    ASSERT_TRUE(ts != nullptr && ts->is_number()) << line;
    ASSERT_TRUE(tid != nullptr && tid->is_number()) << line;
    ASSERT_TRUE(level != nullptr && level->is_string()) << line;
    ASSERT_TRUE(event != nullptr && event->is_string()) << line;
    if (event->text == "command_start") saw_command_start = true;
  }
  EXPECT_GE(lines, 1U);
  EXPECT_TRUE(saw_command_start);
}

TEST_F(DiagnosticsCliTest, TraceReportSummarizesStagesAndQueueWait) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"), "--shape=4096",
                 "--threads=4", "--trace=" + path("trace.json")}),
            0)
      << err_.str();
  ASSERT_EQ(run({"trace-report", path("trace.json")}), 0) << err_.str();

  const std::string text = out_.str();
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("self ms"), std::string::npos);
  EXPECT_NE(text.find("stage1_dct"), std::string::npos) << text;
  EXPECT_NE(text.find("zlib_encode"), std::string::npos) << text;
  EXPECT_NE(text.find("pool:"), std::string::npos) << text;
  EXPECT_NE(text.find("queue-wait"), std::string::npos) << text;
  EXPECT_NE(text.find("critical path:"), std::string::npos) << text;
}

TEST_F(DiagnosticsCliTest, TraceReportRejectsMalformedInput) {
  write_bytes(path("junk.json"), {'n', 'o', 'p', 'e'});
  EXPECT_NE(run({"trace-report", path("junk.json")}), 0);
  EXPECT_NE(err_.str().find("trace-report"), std::string::npos);
}

// ---- Prometheus exposition ----------------------------------------------

// Strict subset-of-Prometheus text parser: families introduced by
// `# HELP <name> <text>` then `# TYPE <name> <type>`, followed by that
// family's samples only. Returns samples keyed by full series name
// (with the label part kept verbatim).
struct PromFamily {
  std::string type;
  std::vector<std::pair<std::string, double>> samples;  // series, value
};

std::map<std::string, PromFamily> parse_prometheus(const std::string& text) {
  std::map<std::string, PromFamily> families;
  std::string help_pending;  // family name from the last HELP line
  std::string open_family;   // family whose samples may follow
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      EXPECT_NE(space, std::string::npos) << line;
      help_pending = rest.substr(0, space);
      EXPECT_FALSE(rest.substr(space + 1).empty()) << "empty help text";
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      EXPECT_NE(space, std::string::npos) << line;
      const std::string name = rest.substr(0, space);
      const std::string type = rest.substr(space + 1);
      EXPECT_EQ(name, help_pending) << "TYPE without a preceding HELP";
      EXPECT_TRUE(type == "counter" || type == "histogram") << line;
      EXPECT_EQ(families.count(name), 0U) << "family repeated: " << name;
      families[name].type = type;
      open_family = name;
      continue;
    }
    EXPECT_NE(line[0], '#') << "unknown comment: " << line;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) return families;
    const std::string series = line.substr(0, space);
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "bad sample value: " << line;
    // A sample belongs to the open family: its name is the family name
    // optionally followed by a label set or a _sum/_count/_bucket
    // suffix.
    EXPECT_FALSE(open_family.empty()) << "sample before any TYPE line";
    if (open_family.empty()) return families;
    EXPECT_EQ(series.rfind(open_family, 0), 0U)
        << "sample " << series << " outside family " << open_family;
    families[open_family].samples.emplace_back(series, value);
  }
  return families;
}

TEST(Diagnostics, PrometheusExpositionPassesAStrictParser) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();
  obs::count(Counter::kCompressCalls);
  obs::count(Counter::kBytesIn, 4096);
  obs::observe(Hist::kSelectedK, 0);
  obs::observe(Hist::kSelectedK, 7);
  obs::observe(Hist::kSelectedK, 1024);

  const std::string text =
      obs::MetricsRegistry::instance().snapshot().to_prometheus();
  const std::map<std::string, PromFamily> families =
      parse_prometheus(text);

  // Every counter appears as dpz_<name>_total, every histogram as
  // dpz_<name> — nothing missing, nothing extra.
  ASSERT_EQ(families.size(), obs::kCounterCount + obs::kHistCount);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::string family =
        std::string("dpz_") +
        obs::counter_name(static_cast<Counter>(i)) + "_total";
    const auto it = families.find(family);
    ASSERT_NE(it, families.end()) << family;
    EXPECT_EQ(it->second.type, "counter");
    ASSERT_EQ(it->second.samples.size(), 1U);
    EXPECT_EQ(it->second.samples[0].first, family);
  }
  for (std::size_t h = 0; h < obs::kHistCount; ++h) {
    const std::string family =
        std::string("dpz_") + obs::hist_name(static_cast<Hist>(h));
    const auto it = families.find(family);
    ASSERT_NE(it, families.end()) << family;
    EXPECT_EQ(it->second.type, "histogram");

    // Bucket ladder: cumulative counts must be non-decreasing, close
    // with le="+Inf", and match the _count sample.
    double last_bucket = -1.0;
    double inf_bucket = -1.0;
    double count = -1.0;
    double sum = -1.0;
    for (const auto& [series, value] : it->second.samples) {
      if (series.rfind(family + "_bucket{le=\"", 0) == 0) {
        EXPECT_GE(value, last_bucket) << series;
        last_bucket = value;
        if (series.find("+Inf") != std::string::npos) inf_bucket = value;
      } else if (series == family + "_count") {
        count = value;
      } else if (series == family + "_sum") {
        sum = value;
      } else {
        ADD_FAILURE() << "unexpected series: " << series;
      }
    }
    EXPECT_GE(inf_bucket, 0.0) << family << " lacks an +Inf bucket";
    EXPECT_EQ(inf_bucket, count) << family;
    EXPECT_GE(sum, 0.0) << family << " lacks a _sum sample";
  }

  // Spot-check the seeded values.
  EXPECT_EQ(families.at("dpz_compress_calls_total").samples[0].second, 1.0);
  EXPECT_EQ(families.at("dpz_bytes_in_total").samples[0].second, 4096.0);
  const PromFamily& k = families.at("dpz_selected_k");
  for (const auto& [series, value] : k.samples) {
    if (series == "dpz_selected_k_count") {
      EXPECT_EQ(value, 3.0);
    }
    if (series == "dpz_selected_k_sum") {
      EXPECT_EQ(value, 1031.0);
    }
  }
}

// --metrics on a real command prints the registry the command filled, in
// the same exposition a scraper reads.
TEST_F(DiagnosticsCliTest, MetricsFlagPrintsPrometheusExposition) {
  obs::MetricsRegistry::instance().reset();
  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"), "--shape=4096",
                 "--metrics"}),
            0)
      << err_.str();
  const std::string out = out_.str();
  const std::size_t start = out.find("# HELP dpz_");
  ASSERT_NE(start, std::string::npos) << out;
  EXPECT_NE(out.find("\ndpz_compress_calls_total 1\n"), std::string::npos)
      << out;
  const std::map<std::string, PromFamily> families =
      parse_prometheus(out.substr(start));
  EXPECT_EQ(families.size(), obs::kCounterCount + obs::kHistCount);
  EXPECT_EQ(families.at("dpz_compress_calls_total").samples[0].second, 1.0);
}

// ---- metrics JSON round trip --------------------------------------------

TEST(Diagnostics, MetricsJsonRoundTripsHistogramSumsAndBuckets) {
  const obs::ScopedTelemetry telemetry(true);
  obs::MetricsRegistry::instance().reset();
  obs::observe(Hist::kSelectedK, 0);     // bucket 0
  obs::observe(Hist::kSelectedK, 1);     // bucket 1
  obs::observe(Hist::kSelectedK, 1);     // bucket 1 again
  obs::observe(Hist::kSelectedK, 4096);  // bucket 13

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.hist_count(Hist::kSelectedK), 4U);
  EXPECT_EQ(snap.hist_sum(Hist::kSelectedK), 4098U);

  const json::Value doc = json::parse(snap.to_json());
  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* h = hists->find("selected_k");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 4.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->number, 4098.0);

  // Sparse [bucket, count] pairs must reconstruct the exact counts.
  const json::Value* buckets = h->find("buckets");
  ASSERT_TRUE(buckets != nullptr && buckets->is_array());
  std::map<int, double> by_bucket;
  for (const json::Value& pair : buckets->items) {
    ASSERT_TRUE(pair.is_array());
    ASSERT_EQ(pair.items.size(), 2U);
    by_bucket[static_cast<int>(pair.items[0].number)] =
        pair.items[1].number;
  }
  EXPECT_EQ(by_bucket.size(), 3U);
  EXPECT_DOUBLE_EQ(by_bucket[0], 1.0);
  EXPECT_DOUBLE_EQ(by_bucket[1], 2.0);
  EXPECT_DOUBLE_EQ(by_bucket[13], 1.0);
}

// ---- determinism with diagnostics on ------------------------------------

TEST(Diagnostics, LoggingAndSinkNeverChangeArchiveBytes) {
  const Dataset ds = make_dataset("CLDHGH", 0.05, 2021);
  const DpzConfig config = DpzConfig::strict();

  const std::vector<std::uint8_t> quiet = dpz_compress(ds.data, config);

  const std::filesystem::path sink_path =
      std::filesystem::temp_directory_path() /
      ("dpz_diag_sink_" + std::to_string(::getpid()) + ".jsonl");
  std::vector<std::uint8_t> loud;
  {
    const obs::ScopedLogLevel verbose(LogLevel::kTrace);
    const obs::LogSinkScope sink(sink_path.string());
    ASSERT_TRUE(sink.ok());
    loud = dpz_compress(ds.data, config);
  }
  std::filesystem::remove(sink_path);

  EXPECT_EQ(quiet, loud)
      << "structured logging must never change output bytes";
}

}  // namespace
}  // namespace dpz
