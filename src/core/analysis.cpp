#include "core/analysis.h"

#include "core/archive_detail.h"

namespace dpz {

DpzAnalysis::DpzAnalysis(const FloatArray& data, bool standardize,
                         std::optional<BlockLayout> forced_layout)
    : original_(data), standardized_(standardize) {
  DPZ_REQUIRE(data.size() >= 8, "DPZ needs at least 8 values");
  if (forced_layout.has_value()) {
    DPZ_REQUIRE(forced_layout->original_total == data.size() &&
                    forced_layout->padded_total() >= data.size() &&
                    forced_layout->m >= 2 && forced_layout->n >= 2,
                "forced layout does not cover the input");
    layout_ = *forced_layout;
  } else {
    layout_ = choose_block_layout(data.size());
  }
  dct_blocks_ = to_blocks(data.flat(), layout_);
  dct_rows(dct_blocks_);
  spectrum_ = fit_pca_spectrum(dct_blocks_, standardize);
}

std::size_t DpzAnalysis::k_for_tve(double threshold) const {
  DpzConfig rule;
  rule.tve = threshold;
  return detail::select_k(spectrum_.model, rule);
}

std::size_t DpzAnalysis::k_for_knee(KneeFit fit) const {
  DpzConfig rule;
  rule.selection = KSelectionMethod::kKneePoint;
  rule.knee_fit = fit;
  return detail::select_k(spectrum_.model, rule);
}

PcaModel DpzAnalysis::model(std::size_t k) {
  const std::size_t m = layout_.m;
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  const bool dense = topk_is_dense(m, k);
  Matrix& solved = dense ? dense_vectors_ : iterated_vectors_;
  if (solved.cols() < k)
    solved = eigen_topk_from(spectrum_.tridiag, spectrum_.model.eigenvalues,
                             dense ? m : k)
                 .vectors;
  PcaModel fit = spectrum_.model;
  fit.components = Matrix(m, k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) fit.components(i, j) = solved(i, j);
  return fit;
}

FloatArray DpzAnalysis::reconstruct_exact(std::size_t k) {
  const PcaModel fit = model(k);
  return detail::stage1_inverse<float>(
      fit.inverse_transform(fit.transform(dct_blocks_, k)), layout_,
      original_.shape());
}

DpzAnalysis::Evaluation DpzAnalysis::evaluate(std::size_t k,
                                              const QuantizerConfig& qcfg,
                                              int zlib_level,
                                              double score_sigma_scale) {
  Evaluation ev;
  const PcaModel fit = model(k);
  ev.archive = detail::encode(
      original_, layout_, fit.transform(dct_blocks_, k), fit,
      standardized_, qcfg, zlib_level, ev.accounting,
      score_sigma_scale > 0.0 ? score_sigma_scale : detail::kScoreSigmaScale);
  ev.reconstructed = dpz_decompress(ev.archive);
  ev.stage3_error =
      compute_error_stats(original_.flat(), ev.reconstructed.flat());
  return ev;
}

}  // namespace dpz
