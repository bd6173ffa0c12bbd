// Boundary: run_sampling is defined here and probes a matrix it was
// handed without a precomputed VIF distribution, so core/sampling.cpp
// may name run_sampling and call sampled_vif (single-stage).
#include "core/sampling.h"

namespace dpz {

SamplingReport run_sampling(const Matrix& dct_blocks,
                            const SamplingConfig& config) {
  Rng rng(config.seed);
  return report_of(sampled_vif(dct_blocks, 0.01, 256, rng));
}

}  // namespace dpz
