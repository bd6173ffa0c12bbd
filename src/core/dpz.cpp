#include "core/dpz.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "codec/bytes.h"
#include "codec/quantizer.h"
#include "codec/shuffle.h"
#include "core/archive_detail.h"
#include "core/layout.h"
#include "core/sampling.h"
#include "dsp/dct.h"
#include "linalg/pca.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "stats/descriptive.h"
#include "stats/vif.h"
#include "util/thread_pool.h"

namespace dpz {

// ---- Stage 1 (the stage functions are declared in archive_detail.h) ---

void dct_rows(Matrix& blocks) {
  const std::shared_ptr<const DctPlan> plan = dct_plan(blocks.cols());
  parallel_for(0, blocks.rows(), [&](std::size_t i) {
    auto row = blocks.row(i);
    plan->forward(row, row);
  });
}

namespace detail {

std::size_t put_side(ByteWriter& w, const SideData& side,
                     bool standardized) {
  for (const double v : side.mean) w.put_f64(v);
  if (standardized)
    for (const double v : side.scale) w.put_f64(v);
  w.put_f64(side.score_scale);
  return put_basis(w, side.basis);
}

std::vector<std::uint8_t> serialize_side(const SideData& side,
                                         bool standardized) {
  ByteWriter w;
  put_side(w, side, standardized);
  return w.take();
}

SideData deserialize_side(std::span<const std::uint8_t> bytes,
                          std::size_t m, std::size_t k, bool standardized) {
  // The section's size is fully determined by (m, k, standardized): means,
  // optional scales, the global score scale, and the f32 basis. The
  // layout parse records that size and get_section holds the section to
  // it before inflating; the bounded reader below rejects anything else.
  ByteReader r(bytes);
  SideData side;
  side.mean.resize(m);
  for (double& v : side.mean) v = r.get_f64();
  side.scale.assign(m, 1.0);
  if (standardized)
    for (double& v : side.scale) v = r.get_f64();
  side.score_scale = r.get_f64();
  if (!(side.score_scale > 0.0))
    throw FormatError("DPZ side section: invalid score scale");
  side.basis = get_basis(r.get_bytes(m * k * sizeof(float)), m, k);
  if (r.remaining() != 0)
    throw FormatError("DPZ side section has trailing bytes");
  return side;
}

std::size_t put_basis(ByteWriter& w, const Matrix& basis) {
  // The shuffle groups sign/exponent bytes of neighboring basis entries
  // together so the section-level zlib pass can actually compress them
  // (raw float soup is nearly incompressible).
  ByteWriter raw;
  for (std::size_t i = 0; i < basis.rows(); ++i)
    for (std::size_t j = 0; j < basis.cols(); ++j)
      raw.put_f32(static_cast<float>(basis(i, j)));
  w.put_bytes(shuffle_bytes(raw.bytes(), sizeof(float)));
  return raw.size();
}

Matrix get_basis(std::span<const std::uint8_t> bytes, std::size_t m,
                 std::size_t k) {
  const std::vector<std::uint8_t> raw = unshuffle_bytes(bytes, sizeof(float));
  ByteReader raw_reader(raw);
  Matrix basis(m, k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j)
      basis(i, j) = static_cast<double>(raw_reader.get_f32());
  return basis;
}

// ---- Stage 2's k rule ---------------------------------------------------

std::size_t select_k(const PcaModel& spectrum, const DpzConfig& config) {
  if (config.fixed_k != 0)
    return std::clamp<std::size_t>(config.fixed_k, 1,
                                   spectrum.feature_count());
  if (config.selection == KSelectionMethod::kKneePoint)
    return detect_knee(spectrum.tve_curve(), config.knee_fit).k;
  return spectrum.k_for_tve(config.tve);
}

// ---- Stage 3, the decoder's tail and the encoder ----------------------

double component_scale(std::span<const double> scores) {
  double mean = 0.0;
  for (const double v : scores) mean += v;
  mean /= static_cast<double>(scores.size());
  double var = 0.0;
  double peak = 0.0;
  for (const double v : scores) {
    var += (v - mean) * (v - mean);
    peak = std::max(peak, std::abs(v));
  }
  var /= static_cast<double>(scores.size());
  if (var > 0.0) return kScoreSigmaScale * std::sqrt(var);
  return peak > 0.0 ? peak : 1.0;
}

Stage3Stream stage3_forward(Matrix& scores, const QuantizerConfig& qcfg,
                            double sigma_scale) {
  Stage3Stream out;
  out.score_scale =
      component_scale(scores.row(0)) * (sigma_scale / kScoreSigmaScale);
  const double inv = 1.0 / out.score_scale;
  parallel_for(0, scores.rows(), [&](std::size_t j) {
    auto row = scores.row(j);
    simd::kernels().scale(inv, row.data(), row.size());
  });
  out.qs = quantize(scores.flat(), qcfg);
  return out;
}

Matrix stage3_inverse(const QuantizedStream& qs, const QuantizerConfig& qcfg,
                      double score_scale, std::size_t k, std::size_t n) {
  Matrix scores(k, n);
  dequantize(qs, qcfg, scores.flat());
  parallel_for(0, k, [&](std::size_t j) {
    for (double& v : scores.row(j)) v *= score_scale;
  });
  return scores;
}

template <typename T>
NdArray<T> stage1_inverse(Matrix blocks, const BlockLayout& layout,
                          const std::vector<std::size_t>& shape) {
  const obs::ScopedSpan span(obs::Span::kDecodeIdct);
  governed_poll();
  const std::shared_ptr<const DctPlan> plan = dct_plan(blocks.cols());
  parallel_for(0, blocks.rows(), [&](std::size_t i) {
    auto row = blocks.row(i);
    plan->inverse(row, row);
  });
  NdArray<T> out(shape);
  from_blocks(blocks, layout, out.flat());
  return out;
}

template <typename T>
NdArray<T> reconstruct(const QuantizedStream& qs, const QuantizerConfig& qcfg,
                       double score_scale, const Matrix& basis,
                       std::span<const double> mean,
                       std::span<const double> scale,
                       const BlockLayout& layout,
                       const std::vector<std::size_t>& shape) {
  // Stage 3 inverse: codes -> normalized scores -> scores.
  Matrix scores;
  {
    const obs::ScopedSpan span(obs::Span::kDecodeDequantize);
    governed_poll();
    scores = stage3_inverse(qs, qcfg, score_scale, qs.count / layout.n,
                            layout.n);
  }

  // Stage 2 inverse through the basis's leading k columns.
  Matrix blocks;
  {
    const obs::ScopedSpan span(obs::Span::kDecodeBackproject);
    governed_poll();
    blocks = pca_back_project(basis, mean, scale, scores);
  }

  NdArray<T> out = stage1_inverse<T>(std::move(blocks), layout, shape);
  obs::count(obs::Counter::kBytesDecoded, out.size() * sizeof(T));
  return out;
}

template FloatArray stage1_inverse(Matrix, const BlockLayout&,
                                   const std::vector<std::size_t>&);
template FloatArray reconstruct(const QuantizedStream&,
                                const QuantizerConfig&, double,
                                const Matrix&, std::span<const double>,
                                std::span<const double>, const BlockLayout&,
                                const std::vector<std::size_t>&);

namespace {

template <typename T>
void put_element(ByteWriter& w, double v) {
  if constexpr (sizeof(T) == 8) {
    w.put_f64(v);
  } else {
    w.put_f32(static_cast<float>(v));
  }
}

template <typename T>
double get_element(ByteReader& r) {
  if constexpr (sizeof(T) == 8) {
    return r.get_f64();
  } else {
    return static_cast<double>(r.get_f32());
  }
}

// Incompressible-input fallback: when the pipeline's archive would exceed
// the input size (low-linearity data where k ~ M and the basis dominates),
// emit a stored archive instead — header + zlib of the raw floats. The
// paper's accounting ignores the PCA basis so it never sees this case; a
// real codec must never expand its input unboundedly.
template <typename T>
std::vector<std::uint8_t> make_stored_archive(const NdArray<T>& data,
                                              int zlib_level) {
  ByteWriter w;  // the error bound slot is unused for stored archives
  put_header(w, DpzArchiveInfo{.stored_raw = true,
                               .double_precision = sizeof(T) == 8,
                               .error_bound = 1.0, .shape = data.shape(),
                               .layout = {}});
  ByteWriter raw;
  for (const T v : data.flat())
    put_element<T>(raw, static_cast<double>(v));
  put_section(w, raw.bytes(), zlib_level);
  return w.take();
}

}  // namespace

template <typename T>
void put_payload(ByteWriter& w, const QuantizedStream& qs, int level,
                 DpzStats& st) {
  const std::size_t before = w.size();
  put_section(w, qs.codes, level);
  ByteWriter outliers;
  for (const double v : qs.outliers) put_element<T>(outliers, v);
  put_section(w, outliers.bytes(), level);
  st.outlier_count = qs.outliers.size();
  st.stage3_bytes = qs.codes.size() + qs.outliers.size() * sizeof(T);
  st.zlib_payload_bytes = w.size() - before;
}

template <typename T>
QuantizedStream read_payload(std::span<const std::uint8_t> archive,
                             const Section& codes, const Section& outliers,
                             std::size_t count) {
  QuantizedStream qs;
  qs.count = count;
  qs.codes = get_section(archive, codes);
  const std::vector<std::uint8_t> raw = get_section(archive, outliers);
  ByteReader r(raw);
  qs.outliers.resize(raw.size() / sizeof(T));
  for (double& v : qs.outliers) v = get_element<T>(r);
  return qs;
}

template void put_payload<float>(ByteWriter&, const QuantizedStream&, int,
                                 DpzStats&);
template QuantizedStream read_payload<float>(std::span<const std::uint8_t>,
                                             const Section&, const Section&,
                                             std::size_t);

template <typename T>
std::vector<std::uint8_t> encode(const NdArray<T>& data,
                                 const BlockLayout& layout, Matrix scores,
                                 const PcaModel& model, bool standardized,
                                 const QuantizerConfig& qcfg, int zlib_level,
                                 DpzStats& st, double sigma_scale) {
  const std::size_t k = scores.rows();
  st.layout = layout;
  st.k = k;
  st.standardized = standardized;
  st.original_bytes = data.size() * sizeof(T);
  st.stage12_bytes = static_cast<std::uint64_t>(k) * layout.n * sizeof(T);

  Stage3Stream s3;
  {
    const obs::ScopedSpan stage(obs::Span::kStage3Quantize, &st.timers);
    governed_poll();
    s3 = stage3_forward(scores, qcfg, sigma_scale);
  }
  const QuantizedStream& qs = s3.qs;

  DPZ_REQUIRE(model.components.cols() == k, "encode needs k components");
  SideData side{model.mean, model.scale, s3.score_scale, model.components};

  // ---- Serialization + zlib add-on -------------------------------------
  ByteWriter w;
  {
    const obs::ScopedSpan stage(obs::Span::kZlibEncode, &st.timers);
    governed_poll();
    put_header(w, DpzArchiveInfo{.wide_codes = qcfg.wide_codes,
                                 .standardized = standardized,
                                 .double_precision = sizeof(T) == 8,
                                 .error_bound = qcfg.error_bound,
                                 .shape = data.shape(), .layout = layout,
                                 .k = k, .outlier_count = qs.outliers.size()});

    const std::size_t before_side = w.size();
    {
      ByteWriter side_raw;  // freed before the payload deflates
      const std::size_t basis_bytes = put_side(side_raw, side, standardized);
      put_section(w, side_raw.bytes(), zlib_level, basis_bytes);
    }
    st.side_bytes = w.size() - before_side;

    put_payload<T>(w, qs, zlib_level, st);
  }

  std::vector<std::uint8_t> archive = w.take();

  // Never expand the input: fall back to a stored archive when the
  // pipeline loses to plain zlib (see make_stored_archive).
  st.stored_raw = archive.size() >= st.original_bytes;
  if (st.stored_raw) archive = make_stored_archive(data, zlib_level);
  st.archive_bytes = archive.size();
  return archive;
}

void count_archive(const DpzStats& st) {
  if (st.stored_raw) obs::count(obs::Counter::kStoredRawFallbacks);
  obs::count(obs::Counter::kBytesArchive, st.archive_bytes);
  obs::count(obs::Counter::kBytesStage12, st.stage12_bytes);
  obs::count(obs::Counter::kBytesStage3, st.stage3_bytes);
  obs::count(obs::Counter::kBytesZlibPayload, st.zlib_payload_bytes);
  obs::count(obs::Counter::kBytesSide, st.side_bytes);
  obs::count(obs::Counter::kOutliers, st.outlier_count);
  obs::observe(obs::Hist::kSelectedK, st.k);
}

DecodePreflight decode_price(const DpzArchiveInfo& info,
                             std::uint64_t side_bytes_per_feature) {
  // Saturating arithmetic throughout: the header is untrusted, so a
  // claimed geometry must never wrap the estimate back below the budget.
  const auto sat_add = [](std::uint64_t a, std::uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
  };
  const auto sat_mul = [](std::uint64_t a, std::uint64_t b) {
    if (a == 0 || b == 0) return std::uint64_t{0};
    return a > UINT64_MAX / b ? UINT64_MAX : a * b;
  };

  const std::uint64_t elem = info.double_precision ? 8 : 4;
  std::uint64_t total = 1;
  for (const std::size_t d : info.shape) total = sat_mul(total, d);

  DecodePreflight pf;
  pf.decoded_bytes = sat_mul(total, elem);
  if (info.stored_raw) {
    // Stored archives inflate the raw element stream (one charged
    // buffer) and materialize the output array next to it.
    pf.peak_bytes = sat_add(pf.decoded_bytes, pf.decoded_bytes);
    return pf;
  }

  const std::uint64_t m = info.layout.m, n = info.layout.n, k = info.k;
  // Dominant charged allocations live concurrently near the end of the
  // decode: the output array, the back-projected block matrix (m x n
  // doubles), the score matrix (k x n doubles), the side data, the
  // inflated code stream, and the outlier stream (raw section + doubles).
  std::uint64_t peak = pf.decoded_bytes;
  peak = sat_add(peak, sat_mul(sat_mul(m, n), 8));
  peak = sat_add(peak, sat_mul(sat_mul(k, n), 8));
  peak = sat_add(peak, sat_mul(m, side_bytes_per_feature));
  peak = sat_add(peak, sat_mul(sat_mul(k, n), info.wide_codes ? 2 : 1));
  peak = sat_add(peak, sat_mul(info.outlier_count, 8 + elem));
  pf.peak_bytes = peak;
  return pf;
}

// DpzAnalysis encodes f32 data from its own translation unit.
template std::vector<std::uint8_t> encode(const FloatArray&,
                                          const BlockLayout&, Matrix,
                                          const PcaModel&, bool,
                                          const QuantizerConfig&, int,
                                          DpzStats&, double);

}  // namespace detail

namespace {

using detail::get_element;
using detail::get_section;

// Algorithm 2's input: maps `config` (S, T, the k rule, seed, quantizer)
// to a SamplingConfig whose precomputed_vifs hold the VIF probe on the
// raw, pre-DCT block matrix — sampled_vif at `vif_sampling_rate` over
// kVifSampleCols columns, seeded with Rng(sampling_seed).
SamplingConfig sampling_config(const Matrix& spatial_blocks,
                               const DpzConfig& config) {
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
  Rng vif_rng(config.sampling_seed);
  scfg.precomputed_vifs = sampled_vif(
      spatial_blocks, config.vif_sampling_rate, kVifSampleCols, vif_rng);
  return scfg;
}

// Stage 1's output: the layout, the M x N block matrix after the DCT and
// the dct_keep_fraction truncation, and Algorithm 2's input when the
// sampling route runs.
struct Stage1 {
  BlockLayout layout;
  Matrix blocks;
  std::optional<SamplingConfig> sampling;
};

// Stage 1, the one front end of compress and dpz_probe: block
// decomposition, the spatial VIF probe when use_sampling is on and M >= 2S,
// the per-block DCT, then the optional truncation.
template <typename T>
Stage1 stage1_forward(const NdArray<T>& data, const DpzConfig& config,
                      obs::StageTimes* timers) {
  DPZ_REQUIRE(config.dct_keep_fraction > 0.0 &&
                  config.dct_keep_fraction <= 1.0,
              "dct_keep_fraction must be in (0, 1]");
  const obs::ScopedSpan stage(obs::Span::kStage1Dct, timers);
  governed_poll();
  Stage1 s1;
  s1.layout = choose_block_layout(data.size());
  s1.blocks = to_blocks(data.flat(), s1.layout);

  // Algorithm 2 probes collinearity on the raw block-data, so sample the
  // VIFs before the DCT rearranges the correlation structure.
  if (config.use_sampling && s1.layout.m >= 2 * config.subset_count)
    s1.sampling = sampling_config(s1.blocks, config);

  dct_rows(s1.blocks);

  // Optional future-work pre-filter: truncate each block's trailing
  // (high-frequency) DCT coefficients before PCA sees them.
  if (config.dct_keep_fraction < 1.0) {
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(config.dct_keep_fraction *
                            static_cast<double>(s1.layout.n))));
    parallel_for(0, s1.layout.m, [&](std::size_t i) {
      auto row = s1.blocks.row(i);
      std::fill(row.begin() + static_cast<std::ptrdiff_t>(keep), row.end(),
                0.0);
    });
  }
  return s1;
}

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        const DpzConfig& config,
                                        DpzStats* stats) {
  DPZ_REQUIRE(data.size() >= 8, "DPZ needs at least 8 values");
  // All parallel loops below (and inside PCA/matmul/quantize) run on the
  // pool this scope resolves; the archive bytes do not depend on it.
  const ScopedThreads pool_scope(config.threads);
  // Resource governance for the whole compression: every Matrix/NdArray/
  // zlib allocation below charges the budget, parallel_for propagates the
  // governor to workers, and each stage boundary polls for cancellation
  // and deadline expiry. Limits never change the archive bytes.
  const GovernorScope governor_scope(config.limits);
  governed_poll();
  DpzStats local_stats;
  DpzStats& st = stats != nullptr ? *stats : local_stats;
  st = DpzStats{};
  obs::count(obs::Counter::kCompressCalls);
  obs::count(obs::Counter::kBytesIn, data.size() * sizeof(T));

  // ---- Stage 1: block decomposition + per-block DCT -------------------
  Stage1 s1 = stage1_forward(data, config, &st.timers);
  const BlockLayout& layout = s1.layout;
  const Matrix& blocks = s1.blocks;

  // ---- Stage 2: PCA in the DCT domain + k selection -------------------
  // One path: Algorithm 2, when it runs, only supplies the standardize
  // decision and its estimate k_e; the spectrum-first fit, the k rule and
  // the top-k solve are the same for both routes.
  PcaModel model;
  std::size_t k = 1;
  bool standardized = config.standardize > 0;
  {
    const obs::ScopedSpan stage(obs::Span::kStage2Pca, &st.timers);
    governed_poll();
    std::size_t k_e = 0;
    if (s1.sampling.has_value()) {
      // Compress uses only k_e and the standardize decision: no CR band.
      s1.sampling->calibrate_factors = false;
      const SamplingReport report = run_sampling(blocks, *s1.sampling);
      st.vif_median = report.vif_median;
      if (config.standardize < 0) standardized = report.low_linearity;
      k_e = report.full_k;
    }
    PcaSpectrum spec = fit_pca_spectrum(blocks, standardized);
    k = k_e != 0 && config.fixed_k == 0 ? k_e
                                        : detail::select_k(spec.model, config);
    model = attach_top_components(std::move(spec), k);
  }

  // ---- Projection: the k x N scores ----------------------------------
  Matrix scores;
  {
    const obs::ScopedSpan stage(obs::Span::kProject, &st.timers);
    scores = model.transform(blocks, k);
  }

  // ---- Stage 3 + serialization ------------------------------------------
  QuantizerConfig qcfg;
  qcfg.error_bound = config.effective_error_bound();
  qcfg.wide_codes = config.effective_wide_codes();
  std::vector<std::uint8_t> archive =
      detail::encode(data, layout, std::move(scores), model, standardized,
                     qcfg, config.zlib_level, st);
  detail::count_archive(st);
  return archive;
}

template <typename T>
NdArray<T> decompress_impl(std::span<const std::uint8_t> archive,
                           std::size_t max_components, unsigned threads,
                           const ResourceLimits& limits) {
  const ScopedThreads pool_scope(threads);
  // Decode governance mirrors compress_impl; additionally the header's
  // claimed geometry is admitted against the memory budget below, before
  // any payload-sized allocation (the zip-bomb gate).
  const GovernorScope governor_scope(limits);
  governed_poll();
  obs::count(obs::Counter::kDecompressCalls);
  // Section reads are the first decode stage; their span closes before
  // detail::reconstruct opens the next.
  DpzArchiveInfo info;
  QuantizerConfig qcfg;
  detail::SideData side;
  QuantizedStream qs;
  {
    const obs::ScopedSpan span(obs::Span::kDecodeSections);
    const detail::DpzLayout parsed =
        detail::parse_layout<detail::DpzLayout>(archive);
    info = parsed.info;
    if (info.double_precision != (sizeof(T) == 8))
      throw FormatError(info.double_precision
                            ? "archive holds double-precision data; use "
                              "dpz_decompress_f64"
                            : "archive holds single-precision data; use "
                              "dpz_decompress");

    // Pre-flight admission: price the header-claimed decode and reject
    // it against the governing memory budget before get_section sizes
    // the first payload allocation from these (validated-but-untrusted)
    // fields. An archive claiming terabytes therefore fails with
    // ResourceExhausted here, never by attempting the allocation.
    if (const ResourceGovernor* g = current_governor())
      g->admit(dpz_decode_preflight(info).peak_bytes,
               info.stored_raw ? "stored DPZ archive" : "DPZ archive");

    if (info.stored_raw) {
      const std::vector<std::uint8_t> raw =
          get_section(archive, parsed.sections[1]);
      ByteReader raw_reader(raw);
      NdArray<T> out(info.shape);
      for (T& v : out.flat()) v = static_cast<T>(get_element<T>(raw_reader));
      obs::count(obs::Counter::kBytesDecoded, out.size() * sizeof(T));
      return out;
    }

    qcfg = {info.error_bound, info.wide_codes};
    // get_section holds each section to the exact size the validated
    // header implies before inflating it, so the score matrices, outlier
    // buffers and dequantize()'s size contract below never see any
    // other.
    side = detail::deserialize_side(get_section(archive, parsed.sections[1]),
                                    info.layout.m, info.k,
                                    info.standardized);
    qs = detail::read_payload<T>(archive, parsed.sections[2],
                                 parsed.sections[3], info.k * info.layout.n);

    // Progressive reconstruction: score streams are stored in component
    // order, so the stream's first max_components * n codes (and the
    // outliers their escapes consume) are a valid lower-rank archive
    // view.
    if (max_components != 0 && max_components < info.k)
      keep_prefix(qs, qcfg, max_components * info.layout.n);
  }
  return detail::reconstruct<T>(qs, qcfg, side.score_scale, side.basis,
                                side.mean, side.scale, info.layout,
                                info.shape);
}

}  // namespace

std::vector<std::uint8_t> dpz_compress(const FloatArray& data,
                                       const DpzConfig& config,
                                       DpzStats* stats) {
  return compress_impl(data, config, stats);
}

std::vector<std::uint8_t> dpz_compress(const DoubleArray& data,
                                       const DpzConfig& config,
                                       DpzStats* stats) {
  return compress_impl(data, config, stats);
}

FloatArray dpz_decompress(std::span<const std::uint8_t> archive,
                          std::size_t max_components, unsigned threads,
                          const ResourceLimits& limits) {
  return decompress_impl<float>(archive, max_components, threads, limits);
}

DoubleArray dpz_decompress_f64(std::span<const std::uint8_t> archive,
                               std::size_t max_components, unsigned threads,
                               const ResourceLimits& limits) {
  return decompress_impl<double>(archive, max_components, threads, limits);
}

DecodePreflight dpz_decode_preflight(const DpzArchiveInfo& info) {
  // A DPZ archive's side data: the basis (m x k doubles plus its
  // serialized f32 image) and the per-feature means and scales.
  return detail::decode_price(info, 12 * std::uint64_t{info.k} + 24);
}

SamplingReport dpz_probe(const FloatArray& data, const DpzConfig& config) {
  const ScopedThreads pool_scope(config.threads);
  const GovernorScope governor_scope(config.limits);
  DpzConfig sampled = config;
  sampled.use_sampling = true;
  const Stage1 s1 = stage1_forward(data, sampled, nullptr);
  DPZ_REQUIRE(s1.sampling.has_value(),
              "need at least two features per subset");
  return run_sampling(s1.blocks, *s1.sampling);
}

DpzArchiveInfo dpz_inspect(std::span<const std::uint8_t> archive) {
  return detail::parse_layout<detail::DpzLayout>(archive).info;
}

}  // namespace dpz
