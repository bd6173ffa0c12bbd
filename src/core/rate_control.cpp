#include "core/rate_control.h"

#include <utility>

#include "core/analysis.h"
#include "core/archive_detail.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

using Probe = DpzAnalysis::Evaluation;

// Runs `search(evaluate, m)` -> (winning probe, target met) over one
// DpzAnalysis of `data`, under base's thread count and resource limits.
// Every probe is the real archive at its k, so the winner is the result.
template <typename Search>
RateTargetResult run_search(const FloatArray& data, const DpzConfig& base,
                            Search&& search) {
  DPZ_REQUIRE(base.dct_keep_fraction == 1.0,
              "rate control searches the untruncated pipeline; "
              "dct_keep_fraction must be 1");
  const ScopedThreads pool_scope(base.threads);
  const GovernorScope governor_scope(base.limits);
  governed_poll();
  obs::count(obs::Counter::kCompressCalls);
  obs::count(obs::Counter::kBytesIn, data.size() * sizeof(float));
  DpzAnalysis analysis(data, base.standardize > 0);
  QuantizerConfig qcfg;
  qcfg.error_bound = base.effective_error_bound();
  qcfg.wide_codes = base.effective_wide_codes();
  auto [best, met] = search(
      [&](std::size_t k) {
        return analysis.evaluate(k, qcfg, base.zlib_level);
      },
      analysis.layout().m);
  detail::count_archive(best.accounting);

  RateTargetResult result;
  result.archive = std::move(best.archive);
  result.stats = best.accounting;
  result.k = result.stats.k;
  result.achieved_cr = result.stats.cr_archive();
  result.achieved_psnr_db = best.stage3_error.psnr_db;
  result.target_met = met;
  return result;
}

}  // namespace

RateTargetResult dpz_compress_target_ratio(const FloatArray& data,
                                           double target_cr,
                                           const DpzConfig& base) {
  DPZ_REQUIRE(target_cr > 1.0, "target ratio must exceed 1");
  return run_search(data, base, [&](auto evaluate, std::size_t m) {
    // Archive size grows with k, so CR falls with k: find the largest k
    // whose CR still meets the target. `best` is the probe at lo.
    std::size_t lo = 1, hi = m;
    Probe best = evaluate(lo);
    if (best.accounting.cr_archive() < target_cr)
      return std::pair{std::move(best), false};
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      Probe probe = evaluate(mid);
      if (probe.accounting.cr_archive() >= target_cr) {
        lo = mid;
        best = std::move(probe);
      } else {
        hi = mid - 1;
      }
    }
    return std::pair{std::move(best), true};
  });
}

RateTargetResult dpz_compress_target_psnr(const FloatArray& data,
                                          double target_db,
                                          const DpzConfig& base) {
  return run_search(data, base, [&](auto evaluate, std::size_t m) {
    // PSNR rises with k until the quantizer caps it; find the smallest k
    // meeting the target. Saturation can make the curve flat at the top,
    // which bisection handles as "not met" when even k = M falls short.
    // `best` is the probe at hi.
    std::size_t lo = 1, hi = m;
    Probe best = evaluate(hi);
    if (best.stage3_error.psnr_db < target_db)
      return std::pair{std::move(best), false};
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Probe probe = evaluate(mid);
      if (probe.stage3_error.psnr_db >= target_db) {
        hi = mid;
        best = std::move(probe);
      } else {
        lo = mid + 1;
      }
    }
    return std::pair{std::move(best), true};
  });
}

}  // namespace dpz
