// Boundary: src/linalg/ defines the TVE curve primitives, so its own
// k_for_tve calls are not a second k rule (single-stage).
#include "linalg/pca.h"

namespace dpz {

std::size_t k_at_least(const PcaModel& model, double threshold) {
  return model.k_for_tve(threshold);
}

}  // namespace dpz
