// Planted: a hand-sequenced Algorithm 2 front end outside the stage home.
#include "core/sampling.h"

namespace dpz {

SamplingReport probe(const Matrix& dct_blocks, const SamplingConfig& cfg) {
  return run_sampling(dct_blocks, cfg);  // planted: single-stage
}

}  // namespace dpz
