#include "core/blocking.h"
#include "linalg/pca.h"

namespace dpz {

FloatArray decode_tail(const PcaModel& model, const Matrix& scores,
                       const BlockLayout& layout, FloatArray& out) {
  Matrix blocks = pca_back_project(model.components, model.mean, model.scale, scores);  // planted: single-stage
  inverse_dct_rows(blocks);
  from_blocks(blocks, layout, out.flat());  // planted: single-stage
  return out;
}

}  // namespace dpz
