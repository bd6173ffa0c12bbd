// Boundary: linalg/eigen_sym.cpp may read team_width() for the
// Householder team gate (raw-thread); its bands come from
// parallel_chunks like every other loop.
#include "util/thread_pool.h"

namespace dpz {

bool use_team(std::size_t n) {
  return n >= 256 && PoolScope::current().team_width() >= 2;
}

void scale_rows(double* rows, std::size_t n, double s) {
  parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) rows[i] *= s;
  });
}

}  // namespace dpz
