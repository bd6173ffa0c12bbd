// dpz_bench: closed-loop benchmark of the DPZ compressor.
//
// One client with one operation in flight: each op starts only after the
// previous one has returned. Ops drive the program through its public
// entry points only (dpz_compress / dpz_decompress, chunked_*,
// tools::run_cli); inputs are make_dataset fields, which the seed
// shuffles block by block (see shuffle_runs).
//
// Workloads (README.md records why each one exists):
//   climate2d-archive      CESM 2-D fields, DPZ-s and DPZ-l alternating;
//                          op = in-memory compress + full decode
//   turbulence3d-sampling  JHTDB 3-D fields, DPZ-s with the Algorithm-2
//                          sampling route, one thread; op = compress + decode
//   cosmo1d-cli-parity     HACC 1-D fields through `dpz compress --chunk
//                          --parity` and `dpz decompress`, file to file
//   archive-read           decode-only mix over archives built in set-up
//
// Flags:
//   --workload=<name> --seed=<n>
//   --seconds=<s>   time whole rounds (every distinct op once) until s
//                   seconds have passed
//   --ops=<n>       run exactly n timed ops instead (smoke runs)
//   --trace=<dir>   traced run: per-layer metrics; Chrome traces in <dir>
//   --workdir=<d>   directory for the files the CLI workload writes
//
// Set-up (inputs, archives, one warm-up op per distinct op) runs three
// times; the warm-ups are excluded from timing, counted in setup_s, and
// the first set-up's results are the reference every later op of the
// same position must reproduce byte for byte.
//
// Output: one "name value unit" line per metric, then as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "codec/zlib_codec.h"
#include "core/archive_detail.h"
#include "core/blocking.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "core/sampling.h"
#include "core/verify.h"
#include "data/datasets.h"
#include "dsp/dct.h"
#include "ecc/reed_solomon.h"
#include "io/file_io.h"
#include "linalg/pca.h"
#include "linalg/subspace_iteration.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "stats/knee.h"
#include "stats/vif.h"
#include "tools/cli_app.h"
#include "util/cli.h"
#include "util/crc32c.h"
#include "util/json_mini.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace dpz;

constexpr int kSetups = 3;
constexpr std::size_t kTracedOps = 20;
constexpr std::size_t kSingleThreadOps = 10;
constexpr double kMiB = 1024.0 * 1024.0;
// Replay stage sums may differ from DpzStats::timers by this share of
// the stage, or of kStageFloor of all stage time for stages smaller than
// that (a few-millisecond bucket is below the timers' noise).
constexpr double kStageTolerance = 0.15;
constexpr double kStageFloor = 0.02;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_floats(std::span<const float> values) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size() * sizeof(float)});
}

std::vector<float> floats_of(std::span<const std::uint8_t> bytes) {
  std::vector<float> out(bytes.size() / sizeof(float));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(float));
  return out;
}

std::vector<float> values_of(const FloatArray& a) {
  return {a.flat().begin(), a.flat().end()};
}

// ---- bench-side spans -------------------------------------------------
//
// The traced run replays each op's input through the layer calls the
// program makes and records a span around every call: name, start, end,
// parent and op id, kept in memory and written as Chrome-trace JSON at
// exit. Top-level spans ("compress", "decompress", "verify", "probe")
// group a replay; layer spans are their direct children. Work counts
// (bytes, values, k) are recorded at the same boundaries.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::size_t op = 0;
  };

  class Scope {
   public:
    Scope(Trace& trace, std::string name) : trace_(trace) {
      index_ = static_cast<int>(trace.spans_.size());
      trace.spans_.push_back({std::move(name), now_s(), 0.0,
                              trace.open_.empty() ? -1 : trace.open_.back(),
                              trace.op_});
      trace.open_.push_back(index_);
    }
    ~Scope() {
      trace_.spans_[static_cast<std::size_t>(index_)].end_s = now_s();
      trace_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int index_ = 0;
  };

  void set_op(std::size_t op) { op_ = op; }
  /// Adds to a work counter; work under a "probe" root (a fidelity check
  /// outside the op's own work) is not counted, like its spans.
  void count(const std::string& name, double v) {
    if (open_.empty() ||
        spans_[static_cast<std::size_t>(open_.front())].name != "probe")
      counts_[name] += v;
  }
  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Name of the top-level span `i` descends from.
  [[nodiscard]] const std::string& root_of(std::size_t i) const {
    while (spans_[i].parent >= 0)
      i = static_cast<std::size_t>(spans_[i].parent);
    return spans_[i].name;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    const double epoch = spans_.empty() ? 0.0 : spans_.front().start_s;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                    (s.start_s - epoch) * 1e6, (s.end_s - s.start_s) * 1e6);
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
          << "\", \"cat\": \"" << (s.parent < 0 ? "replay" : "layer")
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf
          << ", \"args\": {\"op\": " << s.op << ", \"parent\": \""
          << (s.parent < 0 ? ""
                           : spans_[static_cast<std::size_t>(s.parent)].name)
          << "\"}}";
    }
    out << "\n]}\n";
  }

  // Replay fidelity: k, stage-3 bytes, decoded bytes and parity shards
  // must match the program's; stage sums are compared at the end.
  std::size_t fidelity_checks = 0;
  std::size_t fidelity_mismatches = 0;
  std::vector<std::string> fidelity_notes;
  std::array<double, 4> replay_stage_s{};
  std::array<double, 4> program_stage_s{};
  // Real (untraced) wall time of the ops the replays reproduce.
  double compress_wall_s = 0.0;
  double decompress_wall_s = 0.0;

  void expect(bool ok, const std::string& what) {
    ++fidelity_checks;
    if (ok) return;
    ++fidelity_mismatches;
    if (fidelity_notes.size() < 8) fidelity_notes.push_back(what);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t op_ = 0;
  std::map<std::string, double> counts_;
};

// DpzStats::timers bucket names, in the order of Trace::*_stage_s.
constexpr std::array<const char*, 4> kStageBuckets = {
    "stage1_dct", "stage2_pca", "stage3_quantize", "zlib_encode"};

// Which program stage each compress-side layer span belongs to.
int stage_of(const std::string& layer) {
  if (layer == "core.to_blocks" || layer == "stats.vif_probe" ||
      layer == "dsp.dct_forward")
    return 0;
  if (layer == "linalg.covariance" || layer == "linalg.tridiagonalize" ||
      layer == "linalg.eigenvalues" || layer == "linalg.topk_vectors" ||
      layer == "core.sampling_k_estimate" || layer == "linalg.subspace_topk")
    return 1;
  if (layer == "codec.quantize") return 2;
  if (layer == "codec.deflate" || layer == "util.crc32c") return 3;
  return -1;  // linalg.project runs outside every stage span
}

// ---- replays ----------------------------------------------------------

// The centered (optionally standardized) working copy PCA fits on, with
// the model's mean and scale filled in. The fit's own centering step
// (prepare_centered in linalg/pca.cpp) is not exported, so this is the one
// program step the replay repeats in its own code. It must stay
// bit-identical: the model's mean and scale go into the side section, and
// the replay's side-section CRC is checked against the archive's.
Matrix center_features(const Matrix& x, bool standardize, PcaModel& model) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  const simd::KernelTable& ops = simd::kernels();
  model.mean.resize(m);
  model.scale.assign(m, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = x.row(i).data();
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) sum += row[c];
    model.mean[i] = sum / static_cast<double>(n);
  }
  if (standardize) {
    for (std::size_t i = 0; i < m; ++i) {
      const double mu = model.mean[i];
      const double var =
          ops.dot_centered(x.row(i).data(), mu, x.row(i).data(), mu, n) /
          static_cast<double>(n);
      if (var > 0.0) model.scale[i] = std::sqrt(var);
    }
  }
  Matrix centered(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    ops.center_scale(x.row(i).data(), model.mean[i], 1.0 / model.scale[i],
                     centered.row(i).data(), n);
  });
  return centered;
}

struct CompressReplay {
  std::size_t k = 0;
  std::uint64_t stage3_bytes = 0;
  std::array<std::uint32_t, 3> section_crcs{};  ///< side, codes, outliers
  std::array<double, 4> stage_s{};
};

// Stage 1-3 and the zlib add-on of dpz_compress, one layer call at a
// time, on the same pool size the op used.
CompressReplay replay_dpz_compress(const FloatArray& data,
                                   const DpzConfig& config, unsigned threads,
                                   Trace& t) {
  const ScopedThreads pool(threads);
  const std::size_t first_span = t.spans().size();
  const BlockLayout layout = choose_block_layout(data.size());
  Matrix blocks;
  {
    const Trace::Scope s(t, "core.to_blocks");
    blocks = to_blocks(data.flat(), layout);
  }
  const bool sampling =
      config.use_sampling && layout.m >= 2 * config.subset_count;
  std::vector<double> vifs;
  if (sampling) {
    const Trace::Scope s(t, "stats.vif_probe");
    Rng rng(config.sampling_seed);
    vifs = sampled_vif(blocks, config.vif_sampling_rate, 256, rng);
  }
  {
    const Trace::Scope s(t, "dsp.dct_forward");
    const DctPlan plan(layout.n);
    parallel_for(0, layout.m, [&](std::size_t i) {
      auto row = blocks.row(i);
      plan.forward(row, row);
    });
  }

  PcaModel model;
  std::size_t k = 1;
  bool standardized = config.standardize > 0;
  if (sampling) {
    SamplingReport report;
    {
      const Trace::Scope s(t, "core.sampling_k_estimate");
      SamplingConfig scfg;
      scfg.subset_count = config.subset_count;
      scfg.sample_subset_count = config.sample_subset_count;
      scfg.tve = config.tve;
      scfg.use_knee = config.selection == KSelectionMethod::kKneePoint;
      scfg.knee_fit = config.knee_fit;
      scfg.vif_sampling_rate = config.vif_sampling_rate;
      scfg.seed = config.sampling_seed;
      scfg.quant_error_bound = config.effective_error_bound();
      scfg.wide_codes = config.effective_wide_codes();
      scfg.precomputed_vifs = vifs;
      report = run_sampling(blocks, scfg);
    }
    if (config.standardize < 0) standardized = report.low_linearity;
    k = report.full_k;
    Matrix cov;
    {
      const Trace::Scope s(t, "linalg.covariance");
      cov = covariance(center_features(blocks, standardized, model));
    }
    const Trace::Scope s(t, "linalg.subspace_topk");
    SymmetricEigen eig = eigen_sym_topk(cov, k);
    for (double& v : eig.values) v = std::max(v, 0.0);
    model.eigenvalues = std::move(eig.values);
    model.components = std::move(eig.vectors);
  } else {
    PcaSpectrum spec;
    {
      const Trace::Scope s(t, "linalg.covariance");
      spec.cov = covariance(center_features(blocks, standardized, spec.model));
    }
    {
      const Trace::Scope s(t, "linalg.tridiagonalize");
      spec.tridiag = tridiagonalize(spec.cov);
    }
    {
      const Trace::Scope s(t, "linalg.eigenvalues");
      spec.model.eigenvalues = eigen_values_from(spec.tridiag);
      for (double& v : spec.model.eigenvalues) v = std::max(v, 0.0);
    }
    k = config.selection == KSelectionMethod::kKneePoint
            ? detect_knee(spec.model.tve_curve(), config.knee_fit).k
            : spec.model.k_for_tve(config.tve);
    const Trace::Scope s(t, "linalg.topk_vectors");
    model = attach_top_components(std::move(spec), k);
  }
  t.count("core.selected_k", static_cast<double>(k));
  t.count("linalg.feature_count_m", static_cast<double>(layout.m));
  t.count("linalg.covariance_flops", static_cast<double>(layout.m) *
                                         static_cast<double>(layout.m) *
                                         static_cast<double>(layout.n));
  t.count("dpz.compress_replays", 1.0);

  Matrix scores;
  {
    const Trace::Scope s(t, "linalg.project");
    scores = model.transform(blocks, k);
  }
  QuantizerConfig qcfg;
  qcfg.error_bound = config.effective_error_bound();
  qcfg.wide_codes = config.effective_wide_codes();
  detail::SideData side;
  side.mean = model.mean;
  side.scale = model.scale;
  QuantizedStream qs;
  {
    const Trace::Scope s(t, "codec.quantize");
    side.score_scale = detail::component_scale(scores.row(0));
    const double inv = 1.0 / side.score_scale;
    parallel_for(0, scores.rows(), [&](std::size_t j) {
      auto row = scores.row(j);
      simd::kernels().scale(inv, row.data(), row.size());
    });
    qs = quantize(scores.flat(), qcfg);
  }
  t.count("codec.quantized_values", static_cast<double>(qs.count));
  t.count("codec.escaped_values", static_cast<double>(qs.outliers.size()));
  side.basis = Matrix(layout.m, k);
  for (std::size_t i = 0; i < layout.m; ++i)
    for (std::size_t j = 0; j < k; ++j)
      side.basis(i, j) = model.components(i, j);

  std::array<std::vector<std::uint8_t>, 3> blobs;
  std::array<std::size_t, 3> raw_sizes{};
  {
    const Trace::Scope s(t, "codec.deflate");
    const std::vector<std::uint8_t> side_bytes =
        detail::serialize_side(side, standardized);
    ByteWriter outliers;
    for (const double v : qs.outliers) outliers.put_f32(static_cast<float>(v));
    const std::array<std::span<const std::uint8_t>, 3> raw = {
        side_bytes, qs.codes, outliers.bytes()};
    for (std::size_t i = 0; i < 3; ++i) {
      raw_sizes[i] = raw[i].size();
      blobs[i] = zlib_compress(raw[i], config.zlib_level);
    }
  }
  CompressReplay out;
  {
    const Trace::Scope s(t, "util.crc32c");
    for (std::size_t i = 0; i < 3; ++i) {
      out.section_crcs[i] = detail::section_crc(raw_sizes[i], blobs[i]);
      t.count("util.crc32c_bytes", static_cast<double>(blobs[i].size()));
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    t.count("codec.deflate_in", static_cast<double>(raw_sizes[i]));
    t.count("codec.deflate_out", static_cast<double>(blobs[i].size()));
  }

  out.k = k;
  out.stage3_bytes = qs.codes.size() + qs.outliers.size() * sizeof(float);
  for (std::size_t i = first_span; i < t.spans().size(); ++i) {
    const Trace::Span& s = t.spans()[i];
    const int stage = stage_of(s.name);
    if (stage >= 0)
      out.stage_s[static_cast<std::size_t>(stage)] += s.end_s - s.start_s;
  }
  return out;
}

// Compress replay under a top-level span named `root`, plus the fidelity
// checks against the program's own output for the same input and config:
// DpzStats' k and stage-3 bytes, and the CRCs the archive stores for its
// side, codes and outlier sections, which pin every byte the replay
// serialized.
void replay_and_check_compress(const char* root, const FloatArray& data,
                               const DpzConfig& config, unsigned threads,
                               const DpzStats& stats,
                               std::span<const std::uint8_t> archive,
                               const std::string& what, Trace& t) {
  std::vector<std::uint32_t> stored;
  for (const SectionStatus& s : verify_archive(archive).sections)
    if (s.name != "header") stored.push_back(s.stored_crc);
  CompressReplay r;
  {
    const Trace::Scope scope(t, root);
    r = replay_dpz_compress(data, config, threads, t);
  }
  t.expect(r.k == stats.k, what + ": replayed k " + std::to_string(r.k) +
                               " != DpzStats k " + std::to_string(stats.k));
  t.expect(r.stage3_bytes == stats.stage3_bytes,
           what + ": replayed stage-3 bytes " +
               std::to_string(r.stage3_bytes) + " != DpzStats " +
               std::to_string(stats.stage3_bytes));
  // A stored-raw fallback archive has one section the replay never makes.
  if (!stats.stored_raw)
    t.expect(std::equal(r.section_crcs.begin(), r.section_crcs.end(),
                        stored.begin(), stored.end()),
             what + ": replayed section CRCs differ from the archive's");
  for (std::size_t i = 0; i < kStageBuckets.size(); ++i) {
    t.replay_stage_s[i] += r.stage_s[i];
    t.program_stage_s[i] += stats.timers.total(kStageBuckets[i]);
  }
}

// Reads, checks and inflates one v2 section the way the decoder does.
std::vector<std::uint8_t> replay_section(std::span<const std::uint8_t> archive,
                                         const SectionStatus& where, Trace& t) {
  ByteReader r(archive.subspan(static_cast<std::size_t>(where.offset),
                               static_cast<std::size_t>(where.size)));
  const std::uint64_t raw_size = r.get_u64();
  const std::uint32_t stored = r.get_u32();
  const std::vector<std::uint8_t> blob = r.get_blob();
  {
    const Trace::Scope span(t, "util.crc32c");
    if (detail::section_crc(raw_size, blob) != stored)
      throw std::runtime_error("replay: section checksum mismatch");
    t.count("util.crc32c_bytes", static_cast<double>(blob.size()));
  }
  const Trace::Scope span(t, "codec.inflate");
  return zlib_decompress(blob, static_cast<std::size_t>(raw_size));
}

// Full or progressive (max_components > 0) decode of one DPZ archive,
// one layer call at a time, using the section table of its verify
// report. Returns the hash of the decoded floats.
std::uint64_t replay_dpz_decode(std::span<const std::uint8_t> archive,
                                const VerifyReport& rep,
                                std::size_t max_components, unsigned threads,
                                Trace& t) {
  const ScopedThreads pool(threads);
  const DpzArchiveInfo info = dpz_inspect(archive);
  std::vector<std::vector<std::uint8_t>> sections;
  for (const SectionStatus& s : rep.sections)
    if (s.name != "header") sections.push_back(replay_section(archive, s, t));

  std::size_t total = 1;
  for (const std::size_t d : info.shape) total *= d;
  std::vector<float> out(total);
  if (info.stored_raw) return hash_floats(floats_of(sections.at(0)));

  const std::size_t m = info.layout.m;
  const std::size_t n = info.layout.n;
  const std::size_t k = info.k;
  // Section parsing, as the decoder does it before its dequantize stage.
  const detail::SideData side =
      detail::deserialize_side(sections.at(0), m, k, info.standardized);
  QuantizerConfig qcfg;
  qcfg.error_bound = info.error_bound;
  qcfg.wide_codes = info.wide_codes;
  QuantizedStream qs;
  qs.count = k * n;
  qs.codes = std::move(sections.at(1));
  const std::vector<float> outliers = floats_of(sections.at(2));
  qs.outliers.assign(outliers.begin(), outliers.end());
  // A progressive decode keeps the codes of the first use_k components
  // and the outliers their escapes use.
  const std::size_t use_k =
      max_components == 0 ? k : std::min(max_components, k);
  if (use_k < k) {
    qs.count = use_k * n;
    qs.codes.resize(qs.count * qcfg.code_bytes());
    std::size_t escapes = 0;
    for (std::size_t i = 0; i < qs.count; ++i) {
      std::uint32_t code = qs.codes[i * qcfg.code_bytes()];
      if (qcfg.wide_codes)
        code |= static_cast<std::uint32_t>(qs.codes[i * 2 + 1]) << 8;
      if (code == qcfg.bin_count()) ++escapes;
    }
    if (escapes > qs.outliers.size())
      throw std::runtime_error("replay: more escapes than outliers");
    qs.outliers.resize(escapes);
  }

  Matrix scores(use_k, n);
  {
    const Trace::Scope s(t, "codec.dequantize");
    dequantize(qs, qcfg, scores.flat());
    parallel_for(0, scores.rows(), [&](std::size_t j) {
      for (double& v : scores.row(j)) v *= side.score_scale;
    });
  }
  Matrix blocks;
  {
    const Trace::Scope s(t, "linalg.backproject");
    PcaModel model;
    model.mean = side.mean;
    model.scale = side.scale;
    model.components = Matrix(m, use_k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < use_k; ++j)
        model.components(i, j) = side.basis(i, j);
    blocks = model.inverse_transform(scores);
  }
  {
    const Trace::Scope s(t, "dsp.dct_inverse");
    const DctPlan plan(n);
    parallel_for(0, m, [&](std::size_t i) {
      auto row = blocks.row(i);
      plan.inverse(row, row);
    });
  }
  {
    const Trace::Scope s(t, "core.from_blocks");
    from_blocks(blocks, info.layout, std::span<float>(out));
  }
  return hash_floats(out);
}

std::span<const std::uint8_t> section_bytes(
    std::span<const std::uint8_t> archive, const SectionStatus& s) {
  return archive.subspan(static_cast<std::size_t>(s.offset),
                         static_cast<std::size_t>(s.size));
}

// Parity of a chunked container recomputed from its frames, group by
// group, with every shard's CRC checked against the stored one.
void replay_parity(std::span<const std::uint8_t> container,
                   const VerifyReport& rep, Trace& t) {
  const ParityInfo parity = chunked_parity_info(container);
  if (!parity.enabled()) return;
  std::vector<SectionStatus> frames;
  std::vector<SectionStatus> stored;
  for (const SectionStatus& s : rep.sections) {
    if (s.name.rfind("frame[", 0) == 0) frames.push_back(s);
    if (s.name.rfind("parity[", 0) == 0) stored.push_back(s);
  }
  std::vector<std::vector<std::uint8_t>> shards;
  {
    const Trace::Scope span(t, "ecc.parity_encode");
    const ecc::RsCodec codec(parity.parity_k, parity.parity_m);
    for (std::size_t first = 0; first < frames.size();
         first += parity.parity_k) {
      std::size_t shard_size = 0;
      for (std::size_t f = first;
           f < std::min(first + parity.parity_k, frames.size()); ++f)
        shard_size = std::max<std::size_t>(shard_size, frames[f].size);
      std::vector<std::vector<std::uint8_t>> padded(
          parity.parity_k, std::vector<std::uint8_t>(shard_size, 0));
      std::vector<std::span<const std::uint8_t>> spans;
      for (std::size_t i = 0; i < parity.parity_k; ++i) {
        if (first + i < frames.size()) {
          const auto bytes = section_bytes(container, frames[first + i]);
          std::copy(bytes.begin(), bytes.end(), padded[i].begin());
        }
        spans.emplace_back(padded[i]);
      }
      for (auto& shard : codec.encode(spans))
        shards.push_back(std::move(shard));
    }
  }
  // The parity table carries a CRC per shard. (The frame table's CRCs are
  // written inside chunked_compress, under its own span.)
  bool same = shards.size() == stored.size();
  {
    const Trace::Scope span(t, "util.crc32c");
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const bool ok =
          i < stored.size() && crc32c(shards[i]) == stored[i].stored_crc;
      same = same && ok;
      t.count("util.crc32c_bytes", static_cast<double>(shards[i].size()));
      t.count("ecc.parity_bytes", static_cast<double>(shards[i].size()));
    }
  }
  t.expect(same, "replayed parity shards differ from the container's");
}

VerifyReport verified(std::span<const std::uint8_t> archive, Trace& t) {
  const Trace::Scope root(t, "verify");
  const Trace::Scope s(t, "core.verify");
  VerifyReport rep = verify_archive(archive);
  if (!rep.ok) throw std::runtime_error("replay: archive fails verify");
  return rep;
}

// ---- workloads --------------------------------------------------------

// Inputs are the fixed fields make_dataset generates with its default
// seed, standing in for the paper's fixed data files. A field's k, and
// with it its compression ratio, moves by ~15% from one generator seed to
// the next, so the run's seed does not pick the realization. It shuffles
// the field instead: runs of `run` values (a DPZ block or a chunked frame)
// swap places, each inside its group of `group` consecutive runs (the last
// group takes any remainder). DPZ treats blocks as PCA features and frames
// as independent archives, so a shuffled field keeps its spectrum, k,
// ratio and PSNR, while its bytes, its archive and the op order differ
// from seed to seed.
FloatArray shuffle_runs(const FloatArray& data, std::size_t run,
                        std::size_t group, Rng& rng) {
  const std::size_t runs = data.size() / run;
  if (runs * run != data.size())
    throw std::invalid_argument("shuffle_runs: size is not a whole number "
                                "of runs");
  std::vector<std::size_t> order(runs);
  for (std::size_t i = 0; i < runs; ++i) order[i] = i;
  const std::size_t groups = std::max<std::size_t>(1, runs / group);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(g * group);
    rng.shuffle(first, g + 1 == groups ? order.end()
                                       : first + static_cast<std::ptrdiff_t>(
                                                     group));
  }
  const std::span<const float> in = data.flat();
  std::vector<float> out(data.size());
  for (std::size_t i = 0; i < runs; ++i)
    std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(order[i] * run), run,
                out.begin() + static_cast<std::ptrdiff_t>(i * run));
  return FloatArray(data.shape(), std::move(out));
}

// A field for the in-memory DPZ workloads: its blocks shuffled inside the
// sampling route's subsets (DpzConfig::subset_count contiguous groups of
// features), so every PCA the program fits, whole-field or per subset,
// sees the same features.
FloatArray dpz_field(const std::string& name, double scale, Rng& rng) {
  const FloatArray data = make_dataset(name, scale).data;
  const BlockLayout layout = choose_block_layout(data.size());
  if (layout.padded)
    throw std::invalid_argument(name + ": padded block layout");
  return shuffle_runs(data, layout.n, layout.m / DpzConfig{}.subset_count,
                      rng);
}

// The chunked workloads' frame size and parity geometry.
constexpr std::size_t kChunkValues = 65536;
constexpr std::size_t kParityK = 16;
constexpr std::size_t kParityM = 2;

// A field for the chunked workloads: whole frames shuffled inside their
// parity groups, so each group keeps its frames and its shard size.
FloatArray chunked_field(const std::string& name, Rng& rng) {
  return shuffle_runs(make_dataset(name, 1.0).data, kChunkValues, kParityK,
                      rng);
}

struct OpResult {
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::uint64_t in_bytes = 0;       ///< input bytes this op compressed
  std::uint64_t decoded_bytes = 0;  ///< bytes this op reconstructed
  std::uint64_t archive_hash = 0;
  std::uint64_t decode_hash = 0;
  double psnr_db = 0.0;
  /// Whole array, every component: the decodes psnr_db is taken over.
  bool full_decode = true;
  std::vector<std::uint8_t> archive;
  DpzStats stats;  ///< dpz_compress accounting (in-memory DPZ ops only)

  [[nodiscard]] double latency_s() const { return compress_s + decompress_s; }
  [[nodiscard]] bool same_output(const OpResult& ref) const {
    return archive_hash == ref.archive_hash &&
           decode_hash == ref.decode_hash &&
           std::memcmp(&psnr_db, &ref.psnr_db, sizeof(double)) == 0;
  }
};

class Workload {
 public:
  explicit Workload(unsigned threads) : threads_(threads) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Generates every input (and archive) the ops read from `seed`.
  virtual void setup(std::uint64_t seed) = 0;
  /// Ops per round: one per distinct (input, config) or mix slot.
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// Runs op `i` of a round with the given pool size.
  virtual OpResult run_op(std::size_t i, unsigned threads) = 0;
  /// Repeats op `i`'s work through the layer calls, recording spans.
  virtual void replay(std::size_t i, const OpResult& op, Trace& t) = 0;
  /// Traced replay of work done in set-up (archive-read only).
  virtual void replay_setup(Trace&) {}

  /// Total input over total archive bytes of the distinct archives.
  [[nodiscard]] virtual double compression_ratio(
      const std::vector<OpResult>& refs) const {
    double in = 0.0;
    double out = 0.0;
    for (const OpResult& r : refs) {
      in += static_cast<double>(r.in_bytes);
      out += static_cast<double>(r.archive.size());
    }
    return out > 0.0 ? in / out : 0.0;
  }
  /// Compress MiB/s of each set-up, for workloads whose ops only decode.
  std::vector<double> setup_compress_mib_s;

 protected:
  unsigned threads_;
};

// climate2d-archive and turbulence3d-sampling: in-memory dpz_compress +
// dpz_decompress, one case per (field, config).
class DpzWorkload final : public Workload {
 public:
  struct Case {
    std::string field;
    DpzConfig config;
    std::string label;
  };

  DpzWorkload(unsigned threads, double scale, std::vector<Case> cases)
      : Workload(threads), scale_(scale), cases_(std::move(cases)) {}

  void setup(std::uint64_t seed) override {
    inputs_.clear();
    Rng rng(seed);
    for (const Case& c : cases_)
      if (inputs_.count(c.field) == 0)
        inputs_.emplace(c.field, dpz_field(c.field, scale_, rng));
  }
  [[nodiscard]] std::size_t round_size() const override {
    return cases_.size();
  }

  OpResult run_op(std::size_t i, unsigned threads) override {
    const FloatArray& in = inputs_.at(cases_[i].field);
    DpzConfig config = cases_[i].config;
    config.threads = threads;
    OpResult r;
    const double t0 = now_s();
    r.archive = dpz_compress(in, config, &r.stats);
    const double t1 = now_s();
    const FloatArray back = dpz_decompress(r.archive, 0, threads);
    r.decompress_s = now_s() - t1;
    r.compress_s = t1 - t0;
    r.in_bytes = in.size() * sizeof(float);
    r.decoded_bytes = back.size() * sizeof(float);
    r.archive_hash = fnv1a(r.archive);
    r.decode_hash = hash_floats(back.flat());
    r.psnr_db = compute_error_stats(in.flat(), back.flat()).psnr_db;
    return r;
  }

  void replay(std::size_t i, const OpResult& op, Trace& t) override {
    const Case& c = cases_[i];
    DpzConfig config = c.config;
    config.threads = threads_;
    replay_and_check_compress("compress", inputs_.at(c.field), config,
                              threads_, op.stats, op.archive, c.label, t);
    t.compress_wall_s += op.compress_s;
    const VerifyReport rep = verified(op.archive, t);
    {
      const Trace::Scope root(t, "decompress");
      t.expect(replay_dpz_decode(op.archive, rep, 0, threads_, t) ==
                   op.decode_hash,
               c.label + ": replayed decode differs");
    }
    t.decompress_wall_s += op.decompress_s;
  }

 private:
  double scale_;
  std::vector<Case> cases_;
  std::map<std::string, FloatArray> inputs_;  ///< one per field
};

// cosmo1d-cli-parity: `dpz compress --chunk --parity` file -> archive
// file, then `dpz decompress` archive -> file, through tools::run_cli.
class CliWorkload final : public Workload {
 public:
  CliWorkload(unsigned threads, std::vector<std::string> fields,
              std::string dir)
      : Workload(threads), fields_(std::move(fields)), dir_(std::move(dir)) {}

  ~CliWorkload() override {
    std::error_code ec;
    for (const std::string& f : fields_)
      for (const char* ext : {".f32", ".dpz", ".out.f32", ".replay.dpz",
                              ".replay.out.f32"})
        std::filesystem::remove(path(f, ext), ec);
  }

  void setup(std::uint64_t seed) override {
    std::filesystem::create_directories(dir_);
    inputs_.clear();
    Rng rng(seed);
    for (const std::string& f : fields_) {
      inputs_.push_back(chunked_field(f, rng));
      write_f32(path(f, ".f32"), inputs_.back());
    }
  }
  [[nodiscard]] std::size_t round_size() const override {
    return fields_.size();
  }

  OpResult run_op(std::size_t i, unsigned threads) override {
    const std::string& f = fields_[i];
    const FloatArray& in = inputs_[i];
    const std::string t_flag = "--threads=" + std::to_string(threads);
    OpResult r;
    const double t0 = now_s();
    cli({"compress", path(f, ".f32"), path(f, ".dpz"),
         "--shape=" + std::to_string(in.size()),
         "--chunk=" + std::to_string(kChunkValues),
         "--parity=" + std::to_string(kParityK) + "+" +
             std::to_string(kParityM),
         t_flag});
    const double t1 = now_s();
    cli({"decompress", path(f, ".dpz"), path(f, ".out.f32"), t_flag});
    r.decompress_s = now_s() - t1;
    r.compress_s = t1 - t0;
    r.archive = read_bytes(path(f, ".dpz"));
    const std::vector<float> back = floats_of(read_bytes(path(f, ".out.f32")));
    r.in_bytes = in.size() * sizeof(float);
    r.decoded_bytes = back.size() * sizeof(float);
    r.archive_hash = fnv1a(r.archive);
    r.decode_hash = hash_floats(back);
    r.psnr_db = compute_error_stats(in.flat(), back).psnr_db;
    return r;
  }

  void replay(std::size_t i, const OpResult& op, Trace& t) override {
    const std::string& f = fields_[i];
    const VerifyReport rep = verified(op.archive, t);
    {
      const Trace::Scope root(t, "compress");
      FloatArray data;
      {
        const Trace::Scope s(t, "io.read");
        data = read_f32(path(f, ".f32"), {inputs_[i].size()});
        t.count("io.bytes_read",
                static_cast<double>(data.size() * sizeof(float)));
      }
      {
        const Trace::Scope s(t, "chunked.encode");
        ChunkedConfig config;
        config.chunk_values = kChunkValues;
        config.threads = threads_;
        (void)chunked_compress(data, config);
      }
      replay_parity(op.archive, rep, t);
      {
        const Trace::Scope s(t, "io.write");
        write_bytes(path(f, ".replay.dpz"), op.archive);
        t.count("io.bytes_written", static_cast<double>(op.archive.size()));
      }
    }
    t.compress_wall_s += op.compress_s;
    {
      const Trace::Scope root(t, "decompress");
      std::vector<std::uint8_t> archive;
      {
        const Trace::Scope s(t, "io.read");
        archive = read_bytes(path(f, ".replay.dpz"));
        t.count("io.bytes_read", static_cast<double>(archive.size()));
      }
      FloatArray back;
      {
        const Trace::Scope s(t, "chunked.decode");
        back = chunked_decompress(archive, threads_);
      }
      {
        const Trace::Scope s(t, "io.write");
        write_f32(path(f, ".replay.out.f32"), back);
        t.count("io.bytes_written",
                static_cast<double>(back.size() * sizeof(float)));
      }
      t.expect(hash_floats(back.flat()) == op.decode_hash,
               f + ": replayed chunked decode differs");
    }
    t.decompress_wall_s += op.decompress_s;

    // k and stage-3 fidelity on one frame per op: the frame compress the
    // container makes, against the same frame through the replay.
    const std::size_t frames = inputs_[i].size() / kChunkValues;
    const std::size_t frame = probes_++ % frames;
    const auto values =
        inputs_[i].flat().subspan(frame * kChunkValues, kChunkValues);
    const FloatArray chunk({values.size()},
                           std::vector<float>(values.begin(), values.end()));
    DpzConfig config;
    config.threads = 1;
    DpzStats stats;
    const std::vector<std::uint8_t> archive =
        dpz_compress(chunk, config, &stats);
    replay_and_check_compress("probe", chunk, config, 1, stats, archive,
                              f + " frame " + std::to_string(frame), t);
  }

 private:
  [[nodiscard]] std::string path(const std::string& field,
                                 const char* ext) const {
    return dir_ + "/" + field + ext;
  }

  static void cli(std::vector<std::string> args) {
    args.insert(args.begin(), "dpz");
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int rc = tools::run_cli(static_cast<int>(argv.size()), argv.data(),
                                  out, err);
    if (rc != 0)
      throw std::runtime_error("dpz " + args[1] + " exited " +
                               std::to_string(rc) + ": " + err.str());
  }

  std::vector<std::string> fields_;
  std::string dir_;
  std::vector<FloatArray> inputs_;
  std::size_t probes_ = 0;
};

// archive-read: set-up compresses three archives once; the ops are a
// seeded mix of full, chunked, random-access and progressive decodes.
class ArchiveReadWorkload final : public Workload {
 public:
  enum class Kind { kDpz, kChunked, kFrame, kProgressive };
  struct Slot {
    Kind kind = Kind::kDpz;
    std::size_t archive = 0;
    std::size_t frame = 0;
  };

  explicit ArchiveReadWorkload(unsigned threads) : Workload(threads) {}

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    inputs_.clear();
    inputs_.push_back(dpz_field("CLDHGH", 0.5, rng));
    inputs_.push_back(dpz_field("PHIS", 0.5, rng));
    inputs_.push_back(chunked_field("HACC-vx", rng));
    archives_.assign(3, {});
    stats_.assign(2, {});
    DpzConfig strict = DpzConfig::strict();
    DpzConfig loose = DpzConfig::loose();
    strict.threads = threads_;
    loose.threads = threads_;
    const double t0 = now_s();
    archives_[0] = dpz_compress(inputs_[0], strict, &stats_[0]);
    archives_[1] = dpz_compress(inputs_[1], loose, &stats_[1]);
    archives_[2] = chunked_compress(inputs_[2], chunked_config());
    const double seconds = now_s() - t0;
    double bytes = 0.0;
    for (const FloatArray& in : inputs_)
      bytes += static_cast<double>(in.size() * sizeof(float));
    setup_compress_mib_s.push_back(bytes / kMiB / seconds);

    // Fixed proportions per round: 50% full DPZ decode, 25% full chunked
    // decode, 15% random frame access, 10% progressive decode.
    const std::size_t frames = chunked_frame_count(archives_[2]);
    slots_.clear();
    for (std::size_t i = 0; i < 10; ++i)
      slots_.push_back({Kind::kDpz, i % 2, 0});
    for (std::size_t i = 0; i < 5; ++i)
      slots_.push_back({Kind::kChunked, 2, 0});
    for (std::size_t i = 0; i < 3; ++i)
      slots_.push_back({Kind::kFrame, 2, rng.uniform_index(frames)});
    for (std::size_t i = 0; i < 2; ++i)
      slots_.push_back({Kind::kProgressive, i % 2, 0});
    rng.shuffle(slots_.begin(), slots_.end());
  }
  [[nodiscard]] std::size_t round_size() const override {
    return slots_.size();
  }

  OpResult run_op(std::size_t i, unsigned threads) override {
    const Slot& s = slots_[i];
    const std::vector<std::uint8_t>& archive = archives_[s.archive];
    const FloatArray& in = inputs_[s.archive];
    OpResult r;
    std::vector<float> back;
    std::span<const float> original = in.flat();
    const double t0 = now_s();
    switch (s.kind) {
      case Kind::kDpz:
        back = values_of(dpz_decompress(archive, 0, threads));
        break;
      case Kind::kProgressive:
        back = values_of(
            dpz_decompress(archive, progressive_k(s.archive), threads));
        break;
      case Kind::kChunked:
        back = values_of(chunked_decompress(archive, threads));
        break;
      case Kind::kFrame: {
        const ScopedThreads pool(threads);
        ChunkView view = chunked_decompress_frame(archive, s.frame);
        original = original.subspan(view.value_offset, view.values.size());
        back = std::move(view.values);
        break;
      }
    }
    r.decompress_s = now_s() - t0;
    r.decoded_bytes = back.size() * sizeof(float);
    r.archive_hash = fnv1a(archive);
    r.decode_hash = hash_floats(back);
    r.psnr_db = compute_error_stats(original, back).psnr_db;
    r.full_decode = s.kind == Kind::kDpz || s.kind == Kind::kChunked;
    return r;
  }

  void replay(std::size_t i, const OpResult& op, Trace& t) override {
    const Slot& s = slots_[i];
    const std::vector<std::uint8_t>& archive = archives_[s.archive];
    const VerifyReport rep = verified(archive, t);
    // A random access decodes one frame, which is a DPZ archive itself.
    const SectionStatus* frame = nullptr;
    VerifyReport frame_rep;
    if (s.kind == Kind::kFrame) {
      frame = &frame_section(rep, s.frame);
      frame_rep = verified(section_bytes(archive, *frame), t);
    }
    std::uint64_t hash = 0;
    {
      const Trace::Scope root(t, "decompress");
      switch (s.kind) {
        case Kind::kDpz:
          hash = replay_dpz_decode(archive, rep, 0, threads_, t);
          break;
        case Kind::kProgressive:
          hash = replay_dpz_decode(archive, rep, progressive_k(s.archive),
                                   threads_, t);
          break;
        case Kind::kChunked: {
          const Trace::Scope span(t, "chunked.decode");
          hash = hash_floats(chunked_decompress(archive, threads_).flat());
          break;
        }
        case Kind::kFrame: {
          const auto bytes = section_bytes(archive, *frame);
          {
            const Trace::Scope span(t, "util.crc32c");
            if (crc32c(bytes) != frame->stored_crc)
              throw std::runtime_error("replay: frame checksum mismatch");
            t.count("util.crc32c_bytes", static_cast<double>(frame->size));
          }
          hash = replay_dpz_decode(bytes, frame_rep, 0, threads_, t);
          break;
        }
      }
    }
    t.decompress_wall_s += op.decompress_s;
    t.expect(hash == op.decode_hash, "archive-read slot " +
                                         std::to_string(i) +
                                         ": replayed decode differs");
  }

  // Each set-up archive is compressed again right before its replay, so
  // the replay is compared with a compress run under the same conditions.
  void replay_setup(Trace& t) override {
    const char* labels[2] = {"CLDHGH DPZ-s", "PHIS DPZ-l"};
    for (std::size_t a = 0; a < 2; ++a) {
      DpzConfig config = a == 0 ? DpzConfig::strict() : DpzConfig::loose();
      config.threads = threads_;
      DpzStats stats;
      const double t0 = now_s();
      const std::vector<std::uint8_t> archive =
          dpz_compress(inputs_[a], config, &stats);
      t.compress_wall_s += now_s() - t0;
      t.expect(archive == archives_[a],
               std::string(labels[a]) + ": archive differs from set-up");
      replay_and_check_compress("compress", inputs_[a], config, threads_,
                                stats, archive, labels[a], t);
    }
    const double t0 = now_s();
    const std::vector<std::uint8_t> container =
        chunked_compress(inputs_[2], chunked_config());
    t.compress_wall_s += now_s() - t0;
    t.expect(container == archives_[2],
             "HACC-vx container differs from set-up");
    const VerifyReport rep = verified(container, t);
    const Trace::Scope root(t, "compress");
    {
      const Trace::Scope s(t, "chunked.encode");
      ChunkedConfig config = chunked_config();
      config.parity_m = 0;
      (void)chunked_compress(inputs_[2], config);
    }
    replay_parity(container, rep, t);
  }

  [[nodiscard]] double compression_ratio(
      const std::vector<OpResult>&) const override {
    double in = 0.0;
    double out = 0.0;
    for (std::size_t a = 0; a < 3; ++a) {
      in += static_cast<double>(inputs_[a].size() * sizeof(float));
      out += static_cast<double>(archives_[a].size());
    }
    return in / out;
  }

 private:
  [[nodiscard]] ChunkedConfig chunked_config() const {
    ChunkedConfig config;
    config.chunk_values = kChunkValues;
    config.threads = threads_;
    config.parity_k = kParityK;
    config.parity_m = kParityM;
    return config;
  }
  [[nodiscard]] std::size_t progressive_k(std::size_t a) const {
    return std::max<std::size_t>(1, stats_[a].k / 4);
  }
  static const SectionStatus& frame_section(const VerifyReport& rep,
                                            std::size_t frame) {
    const std::string name = "frame[" + std::to_string(frame) + "]";
    for (const SectionStatus& s : rep.sections)
      if (s.name == name) return s;
    throw std::runtime_error("replay: no " + name + " in the container");
  }

  std::vector<FloatArray> inputs_;
  std::vector<std::vector<std::uint8_t>> archives_;
  std::vector<DpzStats> stats_;
  std::vector<Slot> slots_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned threads,
                                        const std::string& workdir) {
  using Case = DpzWorkload::Case;
  if (name == "climate2d-archive") {
    const std::vector<std::string> fields = {"CLDHGH", "CLDLOW", "PHIS",
                                             "FREQSH", "FLDSC"};
    // DPZ-s and DPZ-l alternate; over a round (an odd number of fields,
    // gone through twice) every field is compressed with both.
    std::vector<Case> cases;
    for (std::size_t i = 0; i < 2 * fields.size(); ++i) {
      const bool strict = i % 2 == 0;
      Case c;
      c.field = fields[i % fields.size()];
      c.config = strict ? DpzConfig::strict() : DpzConfig::loose();
      c.label = c.field + (strict ? " DPZ-s" : " DPZ-l");
      cases.push_back(c);
    }
    return std::make_unique<DpzWorkload>(threads, 0.4, cases);
  }
  if (name == "turbulence3d-sampling") {
    std::vector<Case> cases;
    for (const char* field : {"Isotropic", "Channel"}) {
      Case c;
      c.field = field;
      c.config = DpzConfig::strict();
      c.config.use_sampling = true;
      // The route's automatic standardization follows a VIF median over
      // five sampled blocks; on Isotropic that median dips below its
      // cutoff for about one block order in forty, which moves the
      // archive by 2%. The probe still runs and still steers the subset
      // fits; only the whole-field decision is fixed at its usual "off".
      c.config.standardize = 0;
      c.label = c.field + " DPZ-s sampling";
      cases.push_back(c);
    }
    return std::make_unique<DpzWorkload>(1, 0.55, cases);
  }
  if (name == "cosmo1d-cli-parity")
    return std::make_unique<CliWorkload>(
        threads, std::vector<std::string>{"HACC-x", "HACC-vx"}, workdir);
  if (name == "archive-read")
    return std::make_unique<ArchiveReadWorkload>(threads);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The "higher" percentile (numpy method='higher'): always an observed
// sample. Two-input workloads have two latency clusters of equal size,
// where an interpolated median would fall in the gap between them and
// follow the noisy slow tail of the faster cluster.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size() - 1)));
  return v[std::min(rank, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

void report(const std::vector<Metric>& metrics, const Outcome& outcome) {
  bool finite = true;
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-34s %18.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
    finite = finite && std::isfinite(m.value);
  }
  for (const std::string& p : outcome.problems)
    std::cout << "problem: " << p << "\n";
  const bool correct = finite && outcome.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << number(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t ops = 0;
  std::string trace_dir;
  std::string workdir = ".bench_build/work";
};

// Runs op `i`, comparing its outputs with the reference of its slot (or
// recording the reference on the first set-up). Returns false on failure.
bool run_checked(Workload& w, std::size_t i, unsigned threads,
                 std::vector<OpResult>& refs, std::vector<bool>& have_ref,
                 Outcome& outcome, OpResult& result) {
  ++outcome.attempted;
  try {
    result = w.run_op(i, threads);
  } catch (const std::exception& e) {
    outcome.fail("op " + std::to_string(i) + " threw: " + e.what());
    return false;
  }
  if (!have_ref[i]) {
    refs[i] = result;
    have_ref[i] = true;
    return true;
  }
  if (!result.same_output(refs[i])) {
    outcome.fail("op " + std::to_string(i) +
                 ": archive, decode or PSNR differs from the first run");
    return false;
  }
  return true;
}

// Chrome-trace "X" events the program itself emitted while telemetry
// was on, summed by name (durations and pool queue-wait, in seconds).
struct ProgramSpans {
  std::map<std::string, double> seconds;
  std::map<std::string, double> count;
  double queue_wait_s = 0.0;
};

ProgramSpans read_program_spans(const std::string& json_text) {
  ProgramSpans out;
  const json::Value doc = json::parse(json_text);
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const json::Value& e : events->items) {
    const json::Value* name = e.find("name");
    const json::Value* dur = e.find("dur");
    if (name == nullptr || dur == nullptr || !dur->is_number()) continue;
    out.seconds[name->text] += dur->number * 1e-6;
    out.count[name->text] += 1.0;
    if (const json::Value* args = e.find("args"))
      if (const json::Value* w = args->find("queue_wait_us"))
        out.queue_wait_s += w->number * 1e-6;
  }
  return out;
}

// Layer time metrics, in the order they are reported (span name + "_s").
const std::vector<std::string>& layer_spans() {
  static const std::vector<std::string> names = {
      "core.to_blocks",       "core.from_blocks",
      "core.verify",          "core.sampling_k_estimate",
      "dsp.dct_forward",      "dsp.dct_inverse",
      "linalg.covariance",    "linalg.tridiagonalize",
      "linalg.eigenvalues",   "linalg.topk_vectors",
      "linalg.project",       "linalg.backproject",
      "linalg.subspace_topk", "stats.vif_probe",
      "codec.quantize",       "codec.dequantize",
      "codec.deflate",        "codec.inflate",
      "ecc.parity_encode",    "util.crc32c",
      "io.read",              "io.write",
      "chunked.encode",       "chunked.decode"};
  return names;
}

int run(const Options& opt) {
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  const unsigned pool_threads = std::min(4U, nproc);
  const std::unique_ptr<Workload> w =
      make_workload(opt.workload, pool_threads, opt.workdir);
  const unsigned threads = w->threads();
  std::cout << "workload " << opt.workload << ", seed " << opt.seed
            << ", threads " << threads << " of nproc " << nproc
            << (opt.trace_dir.empty() ? "" : ", traced") << "\n";

  Outcome outcome;
  std::vector<double> setup_s;
  std::vector<OpResult> refs;
  std::vector<bool> have_ref;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_s();
    w->setup(opt.seed);
    if (refs.empty()) {
      refs.resize(w->round_size());
      have_ref.assign(w->round_size(), false);
    }
    for (std::size_t i = 0; i < w->round_size(); ++i) {
      OpResult r;
      run_checked(*w, i, threads, refs, have_ref, outcome, r);
    }
    setup_s.push_back(now_s() - t0);
  }

  std::vector<Metric> metrics;
  if (opt.trace_dir.empty()) {
    std::vector<double> latency_ms;
    // Throughput of each round (every slot once), reported as the median
    // over rounds so that a round slowed by the host does not move it.
    std::vector<double> compress_mib_s;
    std::vector<double> decompress_mib_s;
    double compress_s = 0.0;
    double decompress_s = 0.0;
    double compress_bytes = 0.0;
    double decoded_bytes = 0.0;
    const auto close_round = [&] {
      if (compress_s > 0.0)
        compress_mib_s.push_back(compress_bytes / kMiB / compress_s);
      if (decompress_s > 0.0)
        decompress_mib_s.push_back(decoded_bytes / kMiB / decompress_s);
      compress_s = decompress_s = compress_bytes = decoded_bytes = 0.0;
    };
    const double deadline = now_s() + opt.seconds;
    for (std::size_t n = 0;; ++n) {
      const bool round_done = n % w->round_size() == 0;
      if (round_done) close_round();
      if (opt.ops > 0 ? n >= opt.ops : round_done && now_s() >= deadline)
        break;
      OpResult r;
      if (!run_checked(*w, n % w->round_size(), threads, refs, have_ref,
                       outcome, r))
        continue;
      latency_ms.push_back(r.latency_s() * 1e3);
      compress_s += r.compress_s;
      decompress_s += r.decompress_s;
      compress_bytes += static_cast<double>(r.in_bytes);
      decoded_bytes += static_cast<double>(r.decoded_bytes);
    }
    close_round();  // the partial round of an --ops run
    // Decode-only workloads report the compresses their set-ups made.
    if (compress_mib_s.empty()) compress_mib_s = w->setup_compress_mib_s;
    double psnr = 0.0;
    for (const OpResult& r : refs)
      if (r.full_decode && std::isfinite(r.psnr_db) &&
          (psnr == 0.0 || r.psnr_db < psnr))
        psnr = r.psnr_db;
    std::sort(setup_s.begin(), setup_s.end());
    metrics = {
        {"compress_mb_s", percentile(compress_mib_s, 0.5), "MiB/s"},
        {"decompress_mb_s", percentile(decompress_mib_s, 0.5), "MiB/s"},
        {"op_p50_ms", percentile(latency_ms, 0.50), "ms"},
        {"op_p90_ms", percentile(latency_ms, 0.90), "ms"},
        {"compression_ratio", w->compression_ratio(refs), "ratio"},
        {"psnr_db", psnr, "dB"},
        {"setup_s", setup_s[setup_s.size() / 2], "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"}};
    std::cout << "op_samples " << latency_ms.size() << " count\n"
              << "failed_op_ratio "
              << ratio(static_cast<double>(outcome.failed),
                       static_cast<double>(outcome.attempted))
              << " ratio\n";
    report(metrics, outcome);
    return 0;
  }

  // ---- traced run -----------------------------------------------------
  std::filesystem::create_directories(opt.trace_dir);
  const std::size_t ops = opt.ops > 0 ? opt.ops : kTracedOps;
  Trace t;
  // Pass A: each op, then its replay through the layer calls.
  try {
    for (int s = 0; s < kSetups; ++s) w->replay_setup(t);
  } catch (const std::exception& e) {
    outcome.fail(std::string("set-up replay threw: ") + e.what());
  }
  for (std::size_t n = 0; n < ops; ++n) {
    const std::size_t i = n % w->round_size();
    OpResult r;
    if (!run_checked(*w, i, threads, refs, have_ref, outcome, r)) continue;
    t.set_op(n);
    try {
      w->replay(i, r, t);
    } catch (const std::exception& e) {
      outcome.fail("replay of op " + std::to_string(i) + " threw: " +
                   e.what());
    }
  }
  t.write_chrome_json(opt.trace_dir + "/" + opt.workload +
                      ".bench_trace.json");

  // Pass B: each op with telemetry off and then on, back to back; the
  // program's own frame_* and pool_task spans are read from the "on" ops.
  // Pass C: the first ops on one thread, against pass B's pooled "off".
  double off_s = 0.0;
  double on_s = 0.0;
  double one_thread_s = 0.0;
  double pooled_s = 0.0;
  obs::TraceRecorder::instance().clear();
  for (std::size_t n = 0; n < ops; ++n) {
    const std::size_t i = n % w->round_size();
    OpResult off;
    OpResult on;
    bool ok = run_checked(*w, i, threads, refs, have_ref, outcome, off);
    {
      const obs::ScopedTelemetry telemetry(true);
      ok = run_checked(*w, i, threads, refs, have_ref, outcome, on) && ok;
    }
    if (!ok) continue;
    off_s += off.latency_s();
    on_s += on.latency_s();
    OpResult single;
    if (n < kSingleThreadOps &&
        run_checked(*w, i, 1, refs, have_ref, outcome, single)) {
      one_thread_s += single.latency_s();
      pooled_s += off.latency_s();
    }
  }
  const std::string program_json = obs::TraceRecorder::instance().json();
  std::ofstream(opt.trace_dir + "/" + opt.workload + ".program_trace.json")
      << program_json;
  ProgramSpans program = read_program_spans(program_json);
  obs::TraceRecorder::instance().clear();

  std::map<std::string, double> layer_s;
  double compress_layers = 0.0;
  double decompress_layers = 0.0;
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const Trace::Span& s = t.spans()[i];
    if (s.parent < 0) continue;
    const std::string& root = t.root_of(i);
    if (root == "probe") continue;
    const double d = s.end_s - s.start_s;
    layer_s[s.name] += d;
    if (root == "compress") compress_layers += d;
    if (root == "decompress") decompress_layers += d;
  }

  double all_stages = 0.0;
  for (const double s : t.program_stage_s) all_stages += s;
  double max_dev = 0.0;
  for (std::size_t i = 0; i < kStageBuckets.size(); ++i) {
    const double dev =
        std::abs(t.replay_stage_s[i] - t.program_stage_s[i]) /
        std::max({t.program_stage_s[i], kStageFloor * all_stages, 1e-9});
    std::cout << "stage " << kStageBuckets[i] << ": replay "
              << t.replay_stage_s[i] << " s, DpzStats "
              << t.program_stage_s[i] << " s\n";
    max_dev = std::max(max_dev, dev);
  }
  for (const std::string& note : t.fidelity_notes)
    std::cout << "fidelity: " << note << "\n";
  const bool fidelity_ok =
      t.fidelity_mismatches == 0 && max_dev <= kStageTolerance;
  std::cout << "replay fidelity: " << (fidelity_ok ? "PASS" : "FAIL") << " ("
            << t.fidelity_checks << " checks, " << t.fidelity_mismatches
            << " mismatches, stage sums within " << max_dev * 100.0
            << "%)\n";

  const double per_op = 1.0 / static_cast<double>(ops);
  for (const std::string& name : layer_spans())
    metrics.push_back({name + "_s", layer_s[name] * per_op, "s/op"});
  const double replays = t.counted("dpz.compress_replays");
  const double cov_s = layer_s["linalg.covariance"];
  const std::vector<Metric> more = {
      {"compress.wall_s", t.compress_wall_s * per_op, "s/op"},
      {"decompress.wall_s", t.decompress_wall_s * per_op, "s/op"},
      {"compress.unattributed_s",
       (t.compress_wall_s - compress_layers) * per_op, "s/op"},
      {"decompress.unattributed_s",
       (t.decompress_wall_s - decompress_layers) * per_op, "s/op"},
      {"core.selected_k", ratio(t.counted("core.selected_k"), replays),
       "count"},
      {"linalg.feature_count_m",
       ratio(t.counted("linalg.feature_count_m"), replays), "count"},
      {"linalg.covariance_gflop_s",
       ratio(t.counted("linalg.covariance_flops") * 1e-9, cov_s), "GFLOP/s"},
      {"codec.deflate_ratio",
       ratio(t.counted("codec.deflate_in"), t.counted("codec.deflate_out")),
       "ratio"},
      {"codec.escape_ratio",
       ratio(t.counted("codec.escaped_values"),
             t.counted("codec.quantized_values")),
       "ratio"},
      {"ecc.parity_bytes", t.counted("ecc.parity_bytes") * per_op, "B/op"},
      {"util.crc32c_bytes", t.counted("util.crc32c_bytes") * per_op, "B/op"},
      {"io.bytes_read", t.counted("io.bytes_read") * per_op, "B/op"},
      {"io.bytes_written", t.counted("io.bytes_written") * per_op, "B/op"},
      {"chunked.frames",
       (program.count["frame_encode"] + program.count["frame_decode"]) *
           per_op,
       "frames/op"},
      {"chunked.frame_encode_busy_s", program.seconds["frame_encode"] * per_op,
       "s/op"},
      {"chunked.frame_decode_busy_s", program.seconds["frame_decode"] * per_op,
       "s/op"},
      {"pool.queue_wait_s", program.queue_wait_s * per_op, "s/op"},
      {"pool.run_s", program.seconds["pool_task"] * per_op, "s/op"},
      {"pool.speedup_vs_1t", ratio(one_thread_s, pooled_s), "ratio"},
      {"obs.telemetry_on_overhead", ratio(on_s, off_s) - 1.0, "ratio"},
      {"replay.mismatches", static_cast<double>(t.fidelity_mismatches),
       "count"},
      {"replay.stage_time_max_dev", max_dev, "ratio"}};
  metrics.insert(metrics.end(), more.begin(), more.end());
  std::cout << "compress layers cover "
            << 100.0 * ratio(compress_layers, t.compress_wall_s)
            << "% of compress wall, decompress layers "
            << 100.0 * ratio(decompress_layers, t.decompress_wall_s)
            << "% of decompress wall\n";
  report(metrics, outcome);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"workload", "seed", "seconds", "ops", "trace",
                        "workdir"});
    Options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", opt.seconds);
    opt.ops = static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.get_int("ops", 0)));
    opt.trace_dir = args.get_string("trace", "");
    opt.workdir = args.get_string("workdir", opt.workdir);
    if (opt.workload.empty())
      throw std::invalid_argument(
          "usage: dpz_bench --workload=<name> [--seed=N] [--seconds=S] "
          "[--ops=N] [--trace=DIR] [--workdir=DIR]");
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "dpz_bench: " << e.what() << "\n";
    return 1;
  }
}
