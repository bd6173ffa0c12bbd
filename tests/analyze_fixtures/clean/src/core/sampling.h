// Boundary: core/sampling.h declares run_sampling (single-stage).
#pragma once

namespace dpz {

SamplingReport run_sampling(const Matrix& dct_blocks,
                            const SamplingConfig& config);

}  // namespace dpz
