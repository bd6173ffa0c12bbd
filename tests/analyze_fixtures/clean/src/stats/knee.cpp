// Boundary: src/stats/ implements the knee detector and the VIF probe,
// so they may call each other (single-stage).
#include "stats/knee.h"

namespace dpz {

KneeResult detect_knee(std::span<const double> curve, KneeFit fit) {
  return detect_knee_impl(curve, fit);
}

std::vector<double> probe_all(const Matrix& x, Rng& rng) {
  return sampled_vif(x, 1.0, 64, rng);
}

}  // namespace dpz
