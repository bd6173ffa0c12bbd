// Boundary: core/blocking.* defines the de-blocking, so from_blocks may
// appear here (single-stage).
#include "core/blocking.h"

namespace dpz {

void from_blocks(const Matrix& blocks, const BlockLayout& layout,
                 std::span<float> out) {
  copy_rows(blocks, layout, out);
}

}  // namespace dpz
