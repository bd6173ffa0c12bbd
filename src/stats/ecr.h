// Energy compaction ratio (Eq. 1 of the paper): the fraction of total
// signal energy captured by the k largest-magnitude transform
// coefficients. The paper uses ECR (rather than zigzag/zonal masking) as
// the information-preservation metric for DCT on scientific data, and
// Figure 3 plots its cumulative curve against the PCA TVE curve.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace dpz {

/// Cumulative ECR curve: out[k-1] = (sum of k largest |f_i|^2) / (total).
/// A constant-zero input yields an all-ones curve (nothing to preserve).
inline std::vector<double> ecr_curve(std::span<const double> coefficients) {
  std::vector<double> energy(coefficients.size());
  for (std::size_t i = 0; i < coefficients.size(); ++i)
    energy[i] = coefficients[i] * coefficients[i];
  std::sort(energy.begin(), energy.end(), std::greater<double>());

  double total = 0.0;
  for (const double e : energy) total += e;

  std::vector<double> curve(energy.size(), 1.0);
  if (total <= 0.0) return curve;
  double acc = 0.0;
  for (std::size_t i = 0; i < energy.size(); ++i) {
    acc += energy[i];
    curve[i] = acc / total;
  }
  curve.back() = 1.0;
  return curve;
}

}  // namespace dpz
