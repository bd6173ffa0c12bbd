// Figure 3: number of selected features versus (i) cumulative information
// preserved — ECR for DCT (Eq. 1), TVE for PCA (Eq. 2) — and (ii) PSNR of
// the reconstruction, on a FLDSC-class field. The paper's headline
// observations to reproduce:
//   * ~1% of features already preserve > 90% of the information under
//     both metrics;
//   * PSNR of 75 dB is reached with ~35% (DCT) / ~20% (PCA) of features,
//     PCA needing fewer (which motivates the PCA-on-DCT pipeline).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/blocking.h"
#include "dsp/dct.h"
#include "metrics/metrics.h"
#include "stats/ecr.h"
#include "util/thread_pool.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

// Reconstruction keeping only the k largest-magnitude DCT coefficients of
// each block (single-stage DCT feature selection).
FloatArray dct_topk_reconstruct(const FloatArray& data,
                                const BlockLayout& layout,
                                const Matrix& dct_blocks, double fraction) {
  Matrix kept = dct_blocks;
  const auto keep = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(layout.n)));
  parallel_for(0, layout.m, [&](std::size_t i) {
    auto row = kept.row(i);
    // Threshold at the keep-th largest magnitude within the block.
    std::vector<double> mags(row.begin(), row.end());
    for (double& m : mags) m = std::abs(m);
    std::nth_element(mags.begin(), mags.begin() + (keep - 1), mags.end(),
                     std::greater<double>());
    const double threshold = mags[keep - 1];
    std::size_t kept_count = 0;
    for (double& v : row) {
      if (std::abs(v) >= threshold && kept_count < keep) {
        ++kept_count;
      } else {
        v = 0.0;
      }
    }
  });
  const DctPlan plan(layout.n);
  parallel_for(0, layout.m, [&](std::size_t i) {
    auto row = kept.row(i);
    plan.inverse(row, row);
  });
  FloatArray out(data.shape());
  from_blocks(kept, layout, out.flat());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 3: features vs information (ECR/TVE) and PSNR, "
               "DCT vs PCA (FLDSC) ===\n\n";

  const Dataset ds = make_dataset("FLDSC", opt.scale, opt.seed);
  DpzAnalysis analysis(ds.data);
  const BlockLayout& layout = analysis.layout();

  // Information curves.
  std::vector<double> all_coeffs(analysis.dct_blocks().flat().begin(),
                                 analysis.dct_blocks().flat().end());
  const std::vector<double> ecr = ecr_curve(all_coeffs);
  const std::vector<double>& tve = analysis.tve_curve();

  auto curve_at_fraction = [](const std::vector<double>& curve, double f) {
    const std::size_t idx = std::min(
        curve.size() - 1,
        static_cast<std::size_t>(f * static_cast<double>(curve.size())));
    return curve[idx];
  };

  TablePrinter info({"features kept", "DCT cumulative ECR",
                     "PCA cumulative TVE"});
  for (const double f : {0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50}) {
    info.add_row({fixed(100.0 * f, 1) + "%",
                  fixed(100.0 * curve_at_fraction(ecr, f), 3) + "%",
                  fixed(100.0 * curve_at_fraction(tve, f), 3) + "%"});
  }
  info.print();
  std::cout << "(paper: ~1% of features already preserve > 90% in both "
               "metrics)\n\n";

  // PSNR curves: DCT top-k per block vs PCA top-k components.
  TablePrinter psnr({"features kept", "DCT PSNR (dB)", "PCA PSNR (dB)"});
  QuantizerConfig qcfg;  // quantization off-path: exact scores here
  for (const double f : {0.01, 0.05, 0.10, 0.20, 0.35, 0.50}) {
    const FloatArray dct_rec =
        dct_topk_reconstruct(ds.data, layout, analysis.dct_blocks(), f);
    const double dct_psnr =
        compute_error_stats(ds.data.flat(), dct_rec.flat()).psnr_db;

    const auto k = std::max<std::size_t>(
        1, static_cast<std::size_t>(f * static_cast<double>(layout.m)));
    const FloatArray pca_rec = analysis.reconstruct_exact(k);
    const double pca_psnr =
        compute_error_stats(ds.data.flat(), pca_rec.flat()).psnr_db;

    psnr.add_row({fixed(100.0 * f, 0) + "%", fixed(dct_psnr, 2),
                  fixed(pca_psnr, 2)});
  }
  psnr.print();
  std::cout << "(paper: PCA reaches matching PSNR with fewer features "
               "than DCT)\n";
  maybe_write_csv(opt, "fig03_feature_curves", psnr);
  return 0;
}
