#include "core/shared_basis.h"

#include <cmath>
#include <optional>

#include "codec/bytes.h"
#include "core/archive_detail.h"
#include "core/layout.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "util/resource.h"
#include "util/thread_pool.h"

namespace dpz {

SharedBasisCodec SharedBasisCodec::train(const FloatArray& reference,
                                         const DpzConfig& config) {
  DPZ_REQUIRE(reference.size() >= 8, "training snapshot too small");
  // A snapshot carries no per-feature scales and no DCT truncation.
  DPZ_REQUIRE(config.standardize <= 0 && config.dct_keep_fraction == 1.0,
              "a shared basis needs standardize <= 0 and dct_keep_fraction 1");
  const ScopedThreads pool_scope(config.threads);
  const GovernorScope governor_scope(config.limits);
  governed_poll();
  SharedBasisCodec codec;
  codec.threads_ = config.threads;
  codec.limits_ = config.limits;
  codec.layout_ = choose_block_layout(reference.size());
  codec.shape_ = reference.shape();
  codec.qcfg_ = {config.effective_error_bound(),
                 config.effective_wide_codes()};
  codec.zlib_level_ = config.zlib_level;

  Matrix blocks = to_blocks(reference.flat(), codec.layout_);
  dct_rows(blocks);
  // Spectrum-first fit: the full eigenvalue curve drives k selection, and
  // only the k leading eigenvectors are ever solved for (the trailing
  // M - k columns a dense solve would produce are discarded anyway).
  PcaSpectrum spec = fit_pca_spectrum(blocks, false);
  const std::size_t k = detail::select_k(spec.model, config);
  const PcaModel model = attach_top_components(std::move(spec), k);

  // Campaign drift guard: a global offset in a later snapshot lands in
  // the DC coefficient of every block, i.e. along the all-ones feature
  // direction — which a reference without offset variance never puts in
  // its eigenbasis. Append that direction (orthogonalized against the
  // selected components) so uniform drift stays representable.
  const std::size_t m = codec.layout_.m;
  std::vector<double> dc(m, 1.0 / std::sqrt(static_cast<double>(m)));
  for (std::size_t j = 0; j < k; ++j) {
    double dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) dot += dc[i] * model.components(i, j);
    for (std::size_t i = 0; i < m; ++i) dc[i] -= dot * model.components(i, j);
  }
  double dc_norm2 = 0.0;
  for (const double v : dc) dc_norm2 += v * v;
  const bool add_dc = dc_norm2 > 1e-12;
  if (add_dc) {
    const double inv = 1.0 / std::sqrt(dc_norm2);
    for (double& v : dc) v *= inv;
  }

  // Round the basis through f32 immediately: the serialized blob stores
  // f32 columns, and the encoder must use exactly the basis a restored
  // reader will hold, or reconstructions would differ across the wire.
  const std::size_t cols = k + (add_dc ? 1 : 0);
  codec.basis_ = Matrix(m, cols);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      codec.basis_(i, j) = static_cast<double>(
          static_cast<float>(model.components(i, j)));
    if (add_dc)
      codec.basis_(i, k) =
          static_cast<double>(static_cast<float>(dc[i]));
  }
  return codec;
}

std::vector<std::uint8_t> SharedBasisCodec::serialize() const {
  detail::BasisLayout header;
  header.wide_codes = qcfg_.wide_codes;
  header.error_bound = qcfg_.error_bound;
  header.shape = shape_;
  header.layout = layout_;
  header.k = basis_.cols();
  ByteWriter w;
  detail::put_header(w, header);

  ByteWriter basis;
  detail::put_basis(basis, basis_);
  detail::put_section(w, basis.bytes(), zlib_level_);
  return w.take();
}

SharedBasisCodec SharedBasisCodec::deserialize(
    std::span<const std::uint8_t> blob) {
  detail::BasisLayout parsed;
  detail::parse_layout(blob, parsed);
  SharedBasisCodec codec;
  codec.qcfg_ = {parsed.error_bound, parsed.wide_codes};
  codec.shape_ = parsed.shape;
  codec.layout_ = parsed.layout;
  codec.basis_ = detail::get_basis(
      detail::get_section(blob, parsed.sections[1]), codec.layout_.m,
      parsed.k);
  return codec;
}

std::vector<std::uint8_t> SharedBasisCodec::compress(
    const FloatArray& snapshot, DpzStats* stats) const {
  DPZ_REQUIRE(snapshot.shape() == shape_,
              "snapshot shape differs from the training snapshot");
  const ScopedThreads pool_scope(threads_);
  const GovernorScope governor_scope(limits_);
  governed_poll();
  DpzStats local;
  DpzStats& st = stats != nullptr ? *stats : local;
  st = DpzStats{};
  st.layout = layout_;
  st.k = basis_.cols();
  st.original_bytes = snapshot.size() * sizeof(float);
  st.stage12_bytes =
      static_cast<std::uint64_t>(st.k) * layout_.n * sizeof(float);
  obs::count(obs::Counter::kCompressCalls);
  obs::count(obs::Counter::kBytesIn, st.original_bytes);

  std::optional<obs::ScopedSpan> stage;
  stage.emplace(obs::Span::kStage1Dct, &st.timers);
  Matrix blocks = to_blocks(snapshot.flat(), layout_);
  dct_rows(blocks);
  // Per-snapshot centering: the row means of the block matrix.
  std::vector<double> mean(layout_.m);
  for (std::size_t i = 0; i < layout_.m; ++i) mean[i] = mean_of(blocks.row(i));
  const std::vector<double> unit_scale(layout_.m, 1.0);

  // Scores against the frozen basis: Y = D_k^T (Z - mean).
  stage.emplace(obs::Span::kStage2Pca, &st.timers);
  governed_poll();
  Matrix scores = pca_project(basis_, mean, unit_scale, blocks, st.k);

  stage.emplace(obs::Span::kStage3Quantize, &st.timers);
  governed_poll();
  const auto [score_scale, qs] = detail::stage3_forward(scores, qcfg_);

  // The encode span runs to the return, which frees the stage buffers.
  stage.emplace(obs::Span::kZlibEncode, &st.timers);
  governed_poll();
  detail::SnapshotLayout header;
  header.score_scale = score_scale;
  header.outlier_count = qs.outliers.size();
  ByteWriter w;
  detail::put_header(w, header);

  ByteWriter mean_bytes;
  for (const double v : mean) mean_bytes.put_f64(v);
  detail::put_section(w, mean_bytes.bytes(), zlib_level_);
  detail::put_payload<float>(w, qs, zlib_level_, st);
  std::vector<std::uint8_t> archive = w.take();
  st.archive_bytes = archive.size();
  detail::count_archive(st);
  return archive;
}

FloatArray SharedBasisCodec::decompress(
    std::span<const std::uint8_t> archive) const {
  const ScopedThreads pool_scope(threads_);
  const GovernorScope governor_scope(limits_);
  governed_poll();
  obs::count(obs::Counter::kDecompressCalls);
  std::optional<obs::ScopedSpan> span(std::in_place,
                                      obs::Span::kDecodeSections);
  detail::SnapshotLayout parsed;
  detail::parse_layout(archive, parsed);
  const std::uint64_t outlier_count = parsed.outlier_count;
  const std::size_t k = basis_.cols();
  if (outlier_count > k * layout_.n)
    throw FormatError("snapshot archive: implausible outlier count");

  // Pre-flight admission, before any section inflates: the codec's own
  // (validated) geometry prices the decode, with the means as its side
  // data; the resident basis is not part of this operation's working set.
  if (const ResourceGovernor* g = current_governor()) {
    const DpzArchiveInfo claim{.wide_codes = qcfg_.wide_codes,
                               .shape = shape_, .layout = layout_, .k = k,
                               .outlier_count = outlier_count};
    g->admit(detail::decode_price(claim, sizeof(double)).peak_bytes,
             "shared-basis snapshot");
  }

  // A snapshot's section sizes follow from the codec's geometry rather
  // than its own header; get_section holds each section to them before
  // inflating, so dequantize()'s size contract never sees archive bytes.
  parsed.sections[1].expected_raw = layout_.m * sizeof(double);
  parsed.sections[2].expected_raw = k * layout_.n * qcfg_.code_bytes();
  parsed.sections[3].expected_raw = outlier_count * sizeof(float);

  const std::vector<std::uint8_t> mean_raw =
      detail::get_section(archive, parsed.sections[1]);
  ByteReader mean_reader(mean_raw);
  std::vector<double> mean(layout_.m);
  for (double& v : mean) v = mean_reader.get_f64();
  const QuantizedStream qs = detail::read_payload<float>(
      archive, parsed.sections[2], parsed.sections[3], k * layout_.n);
  const std::vector<double> unit_scale(layout_.m, 1.0);
  span.reset();
  return detail::reconstruct<float>(qs, qcfg_, parsed.score_scale, basis_,
                                    mean, unit_scale, layout_, shape_);
}

}  // namespace dpz
