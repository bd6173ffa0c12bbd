// Boundary: src/linalg/ defines the TVE curve primitives and the
// back-projection, so its own k_for_tve and pca_back_project calls are
// not a second k rule or decoder (single-stage).
#include "linalg/pca.h"

namespace dpz {

std::size_t k_at_least(const PcaModel& model, double threshold) {
  return model.k_for_tve(threshold);
}

Matrix PcaModel::inverse_transform(const Matrix& scores) const {
  return pca_back_project(components, mean, scale, scores);
}

}  // namespace dpz
