// Planted: linalg cutting its own bands from the pool's width.
#include "util/thread_pool.h"

namespace dpz {

void scale_rows(double* rows, std::size_t n) {
  const unsigned workers = PoolScope::current().thread_count();  // planted: raw-thread
  const unsigned team = PoolScope::current().team_width();  // planted: raw-thread
  const std::size_t band = (n + workers - 1) / workers;
  parallel_for(0, workers, [&](std::size_t w) {
    for (std::size_t i = w * band; i < n && i < (w + 1) * band; ++i)
      rows[i] *= team;
  });
}

}  // namespace dpz
