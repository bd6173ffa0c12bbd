// A small structured 2-D test field shared by the pipeline suites:
// periodic row/column ramps plus seeded uniform noise, so PCA sees a few
// dominant directions over a noise floor.
#pragma once

#include <cstdint>
#include <vector>

#include "io/ndarray.h"
#include "util/rng.h"

namespace dpz {

inline FloatArray synthetic_2d(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      values[r * cols + c] = static_cast<float>(
          0.25 * static_cast<double>(r % 17) -
          0.125 * static_cast<double>(c % 13) + rng.uniform(-0.5, 0.5));
  return FloatArray({rows, cols}, std::move(values));
}

}  // namespace dpz
