#include "core/shared_basis.h"

#include <cmath>
#include <optional>

#include "codec/bytes.h"
#include "codec/shuffle.h"
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
  const ScopedThreads pool_scope(config.threads);
  const GovernorScope governor_scope(config.limits);
  governed_poll();
  SharedBasisCodec codec;
  codec.threads_ = config.threads;
  codec.limits_ = config.limits;
  codec.layout_ = choose_block_layout(reference.size());
  codec.shape_ = reference.shape();
  codec.qcfg_.error_bound = config.effective_error_bound();
  codec.qcfg_.wide_codes = config.effective_wide_codes();
  codec.zlib_level_ = config.zlib_level;

  Matrix blocks = to_blocks(reference.flat(), codec.layout_);
  dct_rows(blocks);
  // Spectrum-first fit: the full eigenvalue curve drives k selection, and
  // only the k leading eigenvectors are ever solved for (the trailing
  // M - k columns a dense solve would produce are discarded anyway).
  PcaSpectrum spec = fit_pca_spectrum(blocks, config.standardize > 0);
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
  ByteWriter w;
  w.put_u32(detail::kBasisMagicV2);
  w.put_u8(detail::kFormatVersion);
  w.put_u8(qcfg_.wide_codes ? 1 : 0);
  w.put_f64(qcfg_.error_bound);
  w.put_u8(static_cast<std::uint8_t>(shape_.size()));
  for (const std::size_t d : shape_) w.put_u64(d);
  w.put_u64(layout_.m);
  w.put_u64(layout_.n);
  w.put_u64(layout_.original_total);
  w.put_u32(static_cast<std::uint32_t>(basis_.cols()));
  detail::put_header_crc(w);

  ByteWriter basis_bytes;
  for (std::size_t i = 0; i < basis_.rows(); ++i)
    for (std::size_t j = 0; j < basis_.cols(); ++j)
      basis_bytes.put_f32(static_cast<float>(basis_(i, j)));
  const auto shuffled = shuffle_bytes(basis_bytes.bytes(), sizeof(float));
  detail::put_section(w, shuffled, zlib_level_);
  return w.take();
}

SharedBasisCodec SharedBasisCodec::deserialize(
    std::span<const std::uint8_t> blob) {
  const detail::BasisLayout parsed =
      detail::parse_layout<detail::BasisLayout>(blob);
  SharedBasisCodec codec;
  codec.qcfg_.wide_codes = parsed.wide_codes;
  codec.qcfg_.error_bound = parsed.error_bound;
  codec.shape_ = parsed.shape;
  codec.layout_ = parsed.layout;
  const std::size_t k = parsed.k;

  const std::vector<std::uint8_t> raw = unshuffle_bytes(
      detail::get_section(blob, parsed.sections[1]), sizeof(float));
  ByteReader basis_reader(raw);
  codec.basis_ = Matrix(codec.layout_.m, k);
  for (std::size_t i = 0; i < codec.layout_.m; ++i)
    for (std::size_t j = 0; j < k; ++j)
      codec.basis_(i, j) = static_cast<double>(basis_reader.get_f32());
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
  st.outlier_count = qs.outliers.size();
  st.stage3_bytes = qs.codes.size() + qs.outliers.size() * sizeof(float);

  stage.emplace(obs::Span::kZlibEncode, &st.timers);
  governed_poll();
  ByteWriter w;
  w.put_u32(detail::kSnapshotMagicV2);
  w.put_u8(detail::kFormatVersion);
  w.put_f64(score_scale);
  w.put_u64(qs.outliers.size());
  detail::put_header_crc(w);

  ByteWriter mean_bytes;
  for (const double v : mean) mean_bytes.put_f64(v);
  detail::put_section(w, mean_bytes.bytes(), zlib_level_);

  const std::size_t before_payload = w.size();
  detail::put_section(w, qs.codes, zlib_level_);
  ByteWriter outlier_bytes;
  for (const double v : qs.outliers)
    outlier_bytes.put_f32(static_cast<float>(v));
  detail::put_section(w, outlier_bytes.bytes(), zlib_level_);
  st.zlib_payload_bytes = w.size() - before_payload;
  stage.reset();

  std::vector<std::uint8_t> archive = w.take();
  st.archive_bytes = archive.size();
  obs::count(obs::Counter::kBytesArchive, st.archive_bytes);
  obs::count(obs::Counter::kBytesStage3, st.stage3_bytes);
  obs::count(obs::Counter::kBytesZlibPayload, st.zlib_payload_bytes);
  obs::count(obs::Counter::kOutliers, st.outlier_count);
  obs::observe(obs::Hist::kSelectedK, st.k);
  return archive;
}

FloatArray SharedBasisCodec::decompress(
    std::span<const std::uint8_t> archive) const {
  const ScopedThreads pool_scope(threads_);
  const GovernorScope governor_scope(limits_);
  governed_poll();
  obs::count(obs::Counter::kDecompressCalls);
  std::optional<obs::ScopedSpan> span;
  span.emplace(obs::Span::kDecodeSections);
  detail::SnapshotLayout parsed =
      detail::parse_layout<detail::SnapshotLayout>(archive);
  const std::uint64_t outlier_count = parsed.outlier_count;
  const std::size_t k = basis_.cols();
  if (outlier_count > k * layout_.n)
    throw FormatError("snapshot archive: implausible outlier count");

  // Pre-flight admission. The codec's own (already validated) geometry
  // prices the decode — a snapshot archive claims only the outlier count
  // — so the budget is checked before any section inflates. The resident
  // basis is not part of this operation's working set.
  if (const ResourceGovernor* g = current_governor()) {
    const auto m = static_cast<std::uint64_t>(layout_.m);
    const auto n = static_cast<std::uint64_t>(layout_.n);
    const auto kc = static_cast<std::uint64_t>(k);
    const std::uint64_t peak =
        static_cast<std::uint64_t>(layout_.original_total) *
            sizeof(float) +                      // output array
        m * n * sizeof(double) +                 // block matrix
        kc * n * sizeof(double) +                // score matrix
        m * sizeof(double) +                     // means
        kc * n * qcfg_.code_bytes() +            // inflated codes
        outlier_count * (sizeof(double) + 4);    // outlier stream
    g->admit(peak, "shared-basis snapshot");
  }

  // A snapshot's section sizes follow from the codec's geometry rather
  // than its own header; get_section holds each section to them before
  // inflating, so dequantize()'s size contract never sees archive bytes.
  QuantizedStream qs;
  qs.count = k * layout_.n;
  parsed.sections[1].expected_raw = layout_.m * sizeof(double);
  parsed.sections[2].expected_raw = qs.count * qcfg_.code_bytes();
  parsed.sections[3].expected_raw = outlier_count * sizeof(float);

  const std::vector<std::uint8_t> mean_raw =
      detail::get_section(archive, parsed.sections[1]);
  ByteReader mean_reader(mean_raw);
  std::vector<double> mean(layout_.m);
  for (double& v : mean) v = mean_reader.get_f64();

  qs.codes = detail::get_section(archive, parsed.sections[2]);
  const std::vector<std::uint8_t> outlier_raw =
      detail::get_section(archive, parsed.sections[3]);
  ByteReader outlier_reader(outlier_raw);
  qs.outliers.resize(static_cast<std::size_t>(outlier_count));
  for (double& v : qs.outliers)
    v = static_cast<double>(outlier_reader.get_f32());

  span.emplace(obs::Span::kDecodeDequantize);
  governed_poll();
  const Matrix scores = detail::stage3_inverse(qs, qcfg_, parsed.score_scale,
                                               k, layout_.n);

  // Back-project: Z = D_k Y + mean, then inverse DCT + de-block.
  span.emplace(obs::Span::kDecodeBackproject);
  governed_poll();
  const std::vector<double> unit_scale(layout_.m, 1.0);
  Matrix blocks = pca_back_project(basis_, mean, unit_scale, scores);

  span.emplace(obs::Span::kDecodeIdct);
  governed_poll();
  idct_rows(blocks);

  FloatArray out(shape_);
  from_blocks(blocks, layout_, out.flat());
  span.reset();
  obs::count(obs::Counter::kBytesDecoded, out.size() * sizeof(float));
  return out;
}

std::uint64_t SharedBasisCodec::basis_bytes() const {
  return serialize().size();
}

}  // namespace dpz
