// Boundary: src/core/dpz.cpp defines the stage functions, so its DCT
// row loop, score normalization, k rule, VIF probe, run_sampling call,
// back-projection and de-blocking are the single-stage check's one
// allowed copy.
#include <cstddef>
#include <vector>

#include "dsp/dct.h"

namespace dpz {

void dct_rows(Matrix& blocks) {
  const DctPlan plan(blocks.cols());
  for (std::size_t i = 0; i < blocks.rows(); ++i)
    plan.forward(blocks.row(i), blocks.row(i));
}

double component_scale(std::span<const double> scores);

double stage3_scale(const Matrix& scores) {
  return component_scale(scores.row(0));
}

std::size_t select_k(const PcaModel& spectrum, const DpzConfig& config) {
  if (config.selection == KSelectionMethod::kKneePoint)
    return detect_knee(spectrum.tve_curve(), config.knee_fit).k;
  return spectrum.k_for_tve(config.tve);
}

std::vector<double> spatial_probe(const Matrix& blocks, Rng& rng) {
  return sampled_vif(blocks, 0.01, 256, rng);
}

SamplingReport dpz_probe(const Matrix& dct_blocks,
                         const SamplingConfig& config) {
  return run_sampling(dct_blocks, config);
}

FloatArray reconstruct(const Matrix& basis, const Matrix& scores,
                       std::span<const double> mean,
                       std::span<const double> scale,
                       const BlockLayout& layout, FloatArray& out) {
  Matrix blocks = pca_back_project(basis, mean, scale, scores);
  from_blocks(blocks, layout, out.flat());
  return out;
}

}  // namespace dpz
