// Boundary: run_sampling probes a matrix it was handed without a
// precomputed VIF distribution, so core/sampling.cpp may call
// sampled_vif (single-stage).
#include "core/sampling.h"

namespace dpz {

std::vector<double> fallback_probe(const Matrix& dct_blocks, Rng& rng) {
  return sampled_vif(dct_blocks, 0.01, 256, rng);
}

}  // namespace dpz
