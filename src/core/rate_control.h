// Rate and quality targeting for DPZ.
//
// The paper's knobs (TVE threshold, knee point) are information-centric;
// practitioners usually start from a budget ("fit this in 50X") or a
// fidelity floor ("at least 60 dB"). These helpers bisect k over
// DpzAnalysis (size and PSNR are monotone enough in k). Each probe is the
// real archive at its k, so the search sees true sizes and the winning
// probe is the result. The whole search runs under base.threads and
// base.limits (budget, deadline, cancel token).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dpz.h"

namespace dpz {

struct RateTargetResult {
  std::vector<std::uint8_t> archive;
  DpzStats stats;
  std::size_t k = 0;
  double achieved_cr = 0.0;
  double achieved_psnr_db = 0.0;
  /// False when even the extreme k (1 or M) cannot meet the target; the
  /// result then holds the closest achievable operating point.
  bool target_met = false;
};

/// Smallest archive whose end-to-end compression ratio is still at least
/// `target_cr` while keeping as many components (as much fidelity) as
/// that budget allows. `base` supplies scheme/quantizer, standardize,
/// zlib, thread and limit settings; its k selection and sampling fields
/// are ignored, and dct_keep_fraction must be 1.
RateTargetResult dpz_compress_target_ratio(const FloatArray& data,
                                           double target_cr,
                                           const DpzConfig& base = {});

/// Cheapest archive whose reconstruction PSNR reaches `target_db`
/// (smallest k meeting the target). When the quantizer caps the PSNR
/// below the target, returns the best achievable point with
/// target_met = false.
RateTargetResult dpz_compress_target_psnr(const FloatArray& data,
                                          double target_db,
                                          const DpzConfig& base = {});

}  // namespace dpz
