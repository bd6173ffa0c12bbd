#include "dsp/dct.h"

namespace dpz {

void transform_rows(Matrix& blocks, const DctPlan& plan, const DctPlan* p) {
  for (std::size_t i = 0; i < blocks.rows(); ++i) {
    plan.forward(blocks.row(i), blocks.row(i));  // planted: single-stage
    p->inverse(blocks.row(i), blocks.row(i));  // planted: single-stage
  }
  const double s = detail::component_scale(blocks.row(0));  // planted: single-stage
  (void)s;
}

}  // namespace dpz
