// Boundary: declaring a k_for_tve member is not a call of the TVE rule
// (single-stage matches .k_for_tve( and ->k_for_tve( only).
#pragma once

#include <cstddef>

namespace dpz {

class DpzAnalysis {
 public:
  [[nodiscard]] std::size_t k_for_tve(double threshold) const;
};

}  // namespace dpz
