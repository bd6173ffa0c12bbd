// Boundary: DpzAnalysis's knee on the PSNR curve is a different rule
// from Stage 2's, so core/analysis.cpp may call detect_knee
// (single-stage).
#include "core/analysis.h"

namespace dpz {

std::size_t DpzAnalysis::k_for_psnr_knee(KneeFit fit) {
  return detect_knee(psnr_curve(), fit).k;
}

}  // namespace dpz
