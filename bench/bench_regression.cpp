// Benchmark-regression harness for the parallel pipeline: sweeps the
// threads knob over representative datasets/pipelines and emits
// BENCH_pipeline.json (machine-readable; CI uploads it as an artifact so
// throughput can be tracked across commits).
//
// For every (dataset, pipeline, threads) cell it records compress and
// decompress wall time, throughput in MB/s, the per-stage seconds from
// the compressor's DpzStats::timers, CR, PSNR, and an FNV-1a hash
// of the archive bytes. The hash doubles as a determinism check: every
// thread count must produce byte-identical archives and decodes, and
// the harness exits non-zero when any cell disagrees with the 1-thread
// reference — a regression gate, not just a report.
//
// The whole sweep runs with telemetry enabled: the artifact embeds a
// metrics-registry snapshot, a Perfetto-loadable BENCH_trace.json rides
// along, and — when a baseline JSON exists — per-cell and per-stage
// throughput is gated against it (see bench_common.h for the knobs).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/json_mini.h"
#include "util/timer.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

// FNV-1a over a byte span: tiny, dependency-free, and stable across
// platforms — exactly what a cross-commit regression artifact needs.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_f32(std::span<const float> values) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size() * sizeof(float)});
}

// In the alphabetical key order earlier artifacts used.
constexpr obs::Span kCompressStages[] = {
    obs::Span::kStage1Dct, obs::Span::kStage2Pca, obs::Span::kProject,
    obs::Span::kStage3Quantize, obs::Span::kZlibEncode};

struct CellResult {
  std::string dataset;
  std::string pipeline;
  unsigned threads = 0;
  double mb = 0.0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double compress_mbs = 0.0;
  double decompress_mbs = 0.0;
  double cr = 0.0;
  double psnr_db = 0.0;
  std::uint64_t archive_bytes = 0;
  std::uint64_t archive_hash = 0;
  std::uint64_t decode_hash = 0;
  obs::StageTimes stages;  // compress stages; empty for chunked cells
};

CellResult run_cell(const Dataset& ds, const std::string& pipeline,
                    unsigned threads, int repeats) {
  CellResult r;
  r.dataset = ds.name;
  r.pipeline = pipeline;
  r.threads = threads;
  const std::uint64_t original_bytes = ds.data.size() * sizeof(float);
  const double mb = static_cast<double>(original_bytes) / (1024.0 * 1024.0);
  r.mb = mb;

  // Each repetition produces byte-identical output (determinism is the
  // whole point of this harness), so only wall time varies: the minimum
  // wins, which is the stable estimator the baseline gate needs —
  // single-shot timings on a shared runner swing more than the gate's
  // threshold.
  std::vector<std::uint8_t> archive;
  FloatArray back;
  for (int rep = 0; rep < repeats; ++rep) {
    double compress_s = 0.0;
    double decompress_s = 0.0;
    DpzStats stats;
    if (pipeline == "chunked") {
      ChunkedConfig config;
      config.dpz = DpzConfig::strict();
      // Several frames even at bench scale, so the fan-out has work.
      config.chunk_values =
          std::max<std::size_t>(ds.data.size() / 8, std::size_t{1} << 12);
      config.threads = threads;
      Timer timer;
      archive = chunked_compress(ds.data, config);
      compress_s = timer.reset();
      back = chunked_decompress(archive, threads);
      decompress_s = timer.elapsed();
    } else {
      DpzConfig config =
          pipeline == "DPZ-l" ? DpzConfig::loose() : DpzConfig::strict();
      config.threads = threads;
      Timer timer;
      archive = dpz_compress(ds.data, config, &stats);
      compress_s = timer.reset();
      back = dpz_decompress(archive, 0, threads);
      decompress_s = timer.elapsed();
    }
    if (rep == 0 || compress_s < r.compress_s) {
      r.compress_s = compress_s;
      r.stages = stats.timers;
    }
    if (rep == 0 || decompress_s < r.decompress_s)
      r.decompress_s = decompress_s;
  }

  r.compress_mbs = mb / std::max(r.compress_s, 1e-9);
  r.decompress_mbs = mb / std::max(r.decompress_s, 1e-9);
  r.cr = compression_ratio(original_bytes, archive.size());
  r.psnr_db = compute_error_stats(ds.data.flat(), back.flat()).psnr_db;
  r.archive_bytes = archive.size();
  r.archive_hash = fnv1a(archive);
  r.decode_hash = fnv1a_f32(back.flat());
  return r;
}

void write_json(std::ostream& out, const std::vector<CellResult>& cells,
                const BenchOptions& opt, unsigned hw, double calib,
                bool deterministic, const std::string& metrics_json) {
  out << "{\n";
  out << "  \"bench\": \"pipeline\",\n";
  out << "  \"scale\": " << fixed(opt.scale, 6) << ",\n";
  out << "  \"seed\": " << opt.seed << ",\n";
  out << "  \"calibration_mb_s\": " << fixed(calib, 3) << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n";
  out << "  \"metrics\": " << metrics_json << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    // Speedup relative to the 1-thread cell of the same combo.
    double speedup = 0.0;
    for (const CellResult& ref : cells)
      if (ref.dataset == r.dataset && ref.pipeline == r.pipeline &&
          ref.threads == 1)
        speedup = ref.compress_s / std::max(r.compress_s, 1e-9);
    out << "    {\n"
        << "      \"dataset\": \"" << r.dataset << "\",\n"
        << "      \"pipeline\": \"" << r.pipeline << "\",\n"
        << "      \"threads\": " << r.threads << ",\n"
        << "      \"compress_s\": " << scientific(r.compress_s, 6) << ",\n"
        << "      \"decompress_s\": " << scientific(r.decompress_s, 6)
        << ",\n"
        << "      \"compress_mb_s\": " << fixed(r.compress_mbs, 3) << ",\n"
        << "      \"decompress_mb_s\": " << fixed(r.decompress_mbs, 3)
        << ",\n"
        << "      \"speedup_vs_1t\": " << fixed(speedup, 3) << ",\n"
        << "      \"cr\": " << fixed(r.cr, 4) << ",\n"
        << "      \"psnr_db\": " << fixed(r.psnr_db, 3) << ",\n"
        << "      \"archive_bytes\": " << r.archive_bytes << ",\n"
        << "      \"archive_fnv1a\": \"" << r.archive_hash << "\",\n"
        << "      \"decode_fnv1a\": \"" << r.decode_hash << "\",\n"
        << "      \"stages\": {";
    // Non-zero compress stages.
    std::size_t j = 0;
    for (const obs::Span stage : kCompressStages) {
      const double seconds = r.stages.seconds(stage);
      if (seconds == 0.0) continue;
      out << (j++ ? ", " : "") << "\"" << obs::span_name(stage)
          << "\": " << scientific(seconds, 6);
    }
    out << "}\n    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Measurements whose baseline duration is shorter than this are below
// the timing noise floor (sub-10ms cells swing tens of percent run to
// run) and are not gated — the gate would otherwise be flaky by design.
constexpr double kMinGateSeconds = 0.01;

// Deterministic pure-CPU calibration workload: FNV-1a over a fixed
// pseudorandom buffer, minimum of five runs. Its throughput measures
// the machine's effective speed *right now*, so the gate can compare a
// run against a baseline recorded on a differently loaded (or
// thermally throttled) host: both sides are normalized by their own
// calibration before ratios are taken.
double calibration_mb_s() {
  std::vector<std::uint8_t> buf(std::size_t{32} << 20);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64 fill
  for (std::uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  double best = 1e100;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Timer timer;
    sink ^= fnv1a(buf);
    best = std::min(best, timer.elapsed());
  }
  // Keep the hash alive so the loop cannot be elided.
  if (sink == 0x123456789ABCDEFULL) std::cout << "";
  return 32.0 / std::max(best, 1e-9);
}

// Gates this run's throughput against a baseline BENCH_pipeline.json.
//
// Per-cell timings on shared runners swing more than any usable
// threshold, so the gate aggregates: for compress, decompress, and each
// pipeline stage separately, it takes the machine-normalized throughput
// ratio (current / baseline) of every matched (dataset, pipeline,
// threads) cell and fails when the geometric mean drops below
// 1 - max_reg. A real regression in one stage slows that stage in every
// cell, so the mean drops with it; scheduler noise in single cells
// averages out. Cells absent from the baseline pass (the baseline may
// predate them); a baseline recorded at a different --scale skips the
// gate, since fixed-overhead effects would make the comparison
// meaningless.
std::vector<std::string> gate_against_baseline(
    const json::Value& doc, const std::vector<CellResult>& cells,
    double scale, double calib, double max_reg) {
  std::vector<std::string> failures;
  auto number_of = [](const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  auto string_of = [](const json::Value& obj, const char* key) {
    const json::Value* v = obj.find(key);
    return v != nullptr && v->is_string() ? v->text : std::string();
  };
  const json::Value* base_scale = doc.find("scale");
  if (base_scale != nullptr &&
      std::abs(base_scale->number - scale) > 1e-9) {
    std::cout << "baseline gate: skipped (baseline scale "
              << base_scale->number << " != run scale " << scale << ")\n";
    return failures;
  }
  const json::Value* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    failures.push_back("baseline has no \"results\" array");
    return failures;
  }
  // Machine-speed normalization: >1 means this machine currently runs
  // faster than the baseline host did, so baseline numbers are scaled
  // up accordingly (and vice versa).
  double norm = 1.0;
  const double base_calib = number_of(doc, "calibration_mb_s");
  if (base_calib > 0.0 && calib > 0.0) norm = calib / base_calib;

  std::map<std::string, std::vector<double>> ratios;
  for (const CellResult& r : cells) {
    const json::Value* match = nullptr;
    for (const json::Value& b : results->items)
      if (string_of(b, "dataset") == r.dataset &&
          string_of(b, "pipeline") == r.pipeline &&
          static_cast<unsigned>(number_of(b, "threads")) == r.threads)
        match = &b;
    if (match == nullptr) continue;
    auto add_ratio = [&](const std::string& what, double base_mbs,
                         double cur_mbs) {
      if (base_mbs > 0.0 && cur_mbs > 0.0)
        ratios[what].push_back(cur_mbs / (base_mbs * norm));
    };
    if (number_of(*match, "compress_s") >= kMinGateSeconds)
      add_ratio("compress", number_of(*match, "compress_mb_s"),
                r.compress_mbs);
    if (number_of(*match, "decompress_s") >= kMinGateSeconds)
      add_ratio("decompress", number_of(*match, "decompress_mb_s"),
                r.decompress_mbs);
    const json::Value* stages = match->find("stages");
    if (stages == nullptr || !stages->is_object()) continue;
    for (const auto& [stage, secs] : stages->members) {
      if (!secs.is_number() || secs.number < kMinGateSeconds) continue;
      const double seconds = r.stages.total(stage);
      if (seconds <= 0.0) continue;
      add_ratio(stage, r.mb / secs.number, r.mb / seconds);
    }
  }
  for (const auto& [what, v] : ratios) {
    double log_sum = 0.0;
    for (const double x : v) log_sum += std::log(std::max(x, 1e-12));
    const double geomean = std::exp(log_sum / static_cast<double>(v.size()));
    if (geomean >= 1.0 - max_reg) continue;
    std::ostringstream msg;
    msg << what << ": mean throughput " << fixed(geomean, 3)
        << "x baseline across " << v.size()
        << " cells (machine-normalized x" << fixed(norm, 3)
        << "; allowed >= " << fixed(1.0 - max_reg, 3) << ")";
    failures.push_back(msg.str());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Pipeline regression bench: threads sweep ===\n\n";

  // The whole sweep runs with telemetry on: the JSON artifact embeds a
  // metrics snapshot and a Perfetto trace rides along. The per-cell
  // determinism hashes double as standing proof that tracing never
  // perturbs archive bytes.
  const dpz::obs::ScopedTelemetry telemetry(true);
  dpz::obs::MetricsRegistry::instance().reset();
  dpz::obs::TraceRecorder::instance().clear();

  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  std::vector<unsigned> sweep = {1, 2, std::max(4U, hw)};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  // One dataset per rank: 2-D climate, 1-D cosmology, 3-D turbulence.
  const std::vector<std::string> names = {"CLDHGH", "HACC-x", "Isotropic"};
  const std::vector<std::string> pipelines = {"DPZ-l", "DPZ-s", "chunked"};

  std::vector<CellResult> cells;
  bool deterministic = true;
  TablePrinter table({"dataset", "pipeline", "threads", "comp s",
                      "comp MB/s", "speedup", "CR", "PSNR dB", "det"});
  for (const std::string& name : names) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    for (const std::string& pipeline : pipelines) {
      std::uint64_t ref_archive = 0;
      std::uint64_t ref_decode = 0;
      double ref_seconds = 0.0;
      for (const unsigned threads : sweep) {
        const CellResult r = run_cell(ds, pipeline, threads, opt.repeats);
        bool same = true;
        if (threads == sweep.front()) {
          ref_archive = r.archive_hash;
          ref_decode = r.decode_hash;
          ref_seconds = r.compress_s;
        } else {
          same = r.archive_hash == ref_archive &&
                 r.decode_hash == ref_decode;
          deterministic = deterministic && same;
        }
        table.add_row({r.dataset, r.pipeline, std::to_string(r.threads),
                       fixed(r.compress_s, 3), fixed(r.compress_mbs, 1),
                       fixed(ref_seconds / std::max(r.compress_s, 1e-9), 2),
                       fixed(r.cr, 2), fixed(r.psnr_db, 2),
                       same ? "ok" : "MISMATCH"});
        cells.push_back(r);
      }
    }
  }

  table.print();
  const double calib = calibration_mb_s();
  std::cout << "\nhardware threads: " << hw << "\n";
  std::cout << "calibration: " << fixed(calib, 1) << " MB/s\n";
  if (!deterministic)
    std::cout << "DETERMINISM FAILURE: archives differ across thread "
                 "counts\n";

  const std::string metrics_json =
      dpz::obs::MetricsRegistry::instance().snapshot().to_json();
  const std::string path = artifact_path(opt, "BENCH_pipeline.json");
  std::ofstream json_out(path);
  write_json(json_out, cells, opt, hw, calib, deterministic, metrics_json);
  std::cout << "wrote " << path << "\n";

  // Prometheus textfile rendering of the same registry snapshot, for
  // node_exporter-style collection from the CI artifact directory.
  const std::string prom_path = artifact_path(opt, "BENCH_metrics.prom");
  std::ofstream prom_out(prom_path);
  prom_out << dpz::obs::MetricsRegistry::instance()
                  .snapshot()
                  .to_prometheus();
  std::cout << "wrote " << prom_path << "\n";

  const std::string trace_path = artifact_path(opt, "BENCH_trace.json");
  if (dpz::obs::TraceRecorder::instance().write_file(trace_path))
    std::cout << "wrote " << trace_path << " ("
              << dpz::obs::TraceRecorder::instance().event_count()
              << " spans)\n";
  else
    std::cout << "WARNING: cannot write " << trace_path << "\n";

  // --rebaseline replaces the gate: this run becomes the new baseline,
  // calibration metadata included, so future gates normalize against
  // the machine that recorded it. Only a deterministic run may be
  // enshrined — a nondeterministic one would bake mismatched hashes
  // into every later comparison.
  if (opt.rebaseline) {
    if (!deterministic) {
      std::cout << "REBASELINE FAILURE: refusing to record a "
                   "nondeterministic run\n";
      return 1;
    }
    std::ofstream base_out(opt.baseline);
    if (!base_out) {
      std::cout << "REBASELINE FAILURE: cannot write " << opt.baseline
                << "\n";
      return 1;
    }
    write_json(base_out, cells, opt, hw, calib, deterministic,
               metrics_json);
    std::cout << "rebaselined: wrote " << opt.baseline << " (calibration "
              << fixed(calib, 1) << " MB/s, scale " << fixed(opt.scale, 3)
              << ", " << cells.size() << " cells)\n";
    return 0;
  }

  // Throughput gate against the committed baseline. A missing default
  // baseline only skips the gate; an explicitly requested one must
  // exist.
  bool gate_ok = true;
  std::ifstream base_in(opt.baseline);
  if (!base_in) {
    if (opt.baseline_explicit) {
      std::cout << "BASELINE FAILURE: cannot read " << opt.baseline
                << "\n";
      gate_ok = false;
    } else {
      std::cout << "no baseline at " << opt.baseline << "; gate skipped\n";
    }
  } else {
    std::stringstream buf;
    buf << base_in.rdbuf();
    try {
      const dpz::json::Value doc = dpz::json::parse(buf.str());
      const std::vector<std::string> failures = gate_against_baseline(
          doc, cells, opt.scale, calib, opt.max_regression);
      if (failures.empty()) {
        std::cout << "baseline gate: ok vs " << opt.baseline
                  << " (allowed drop "
                  << fixed(opt.max_regression * 100.0, 0) << "%)\n";
      } else {
        gate_ok = false;
        std::cout << "BASELINE FAILURE vs " << opt.baseline
                  << " (allowed drop "
                  << fixed(opt.max_regression * 100.0, 0)
                  << "%; loosen with --max-regression=<f> or "
                     "DPZ_BENCH_MAX_REGRESSION):\n";
        for (const std::string& f : failures) std::cout << "  " << f << "\n";
      }
    } catch (const std::exception& e) {
      std::cout << "BASELINE FAILURE: cannot parse " << opt.baseline
                << ": " << e.what() << "\n";
      gate_ok = false;
    }
  }
  return deterministic && gate_ok ? 0 : 1;
}
