// Compliant: DpzAnalysis chooses k through Stage 2's one k rule.
#include "core/analysis.h"

namespace dpz {

std::size_t DpzAnalysis::k_for_knee(KneeFit fit) const {
  DpzConfig rule;
  rule.selection = KSelectionMethod::kKneePoint;
  rule.knee_fit = fit;
  return detail::select_k(spectrum_.model, rule);
}

}  // namespace dpz
