#include "core/dpz.h"

namespace dpz {

std::size_t pick_k(const PcaModel& model, const DpzConfig& config) {
  if (config.selection == KSelectionMethod::kKneePoint)
    return detect_knee(model.tve_curve(), config.knee_fit).k;  // planted: single-stage
  return model.k_for_tve(config.tve);  // planted: single-stage
}

std::vector<double> probe(const Matrix& blocks, Rng& rng) {
  return sampled_vif(blocks, 0.01, 256, rng);  // planted: single-stage
}

}  // namespace dpz
