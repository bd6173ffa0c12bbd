// Ablation of the Stage-3 quantizer calibration: the score-normalization
// sigma scale (DESIGN.md SS3) controls how much of the dominant
// component's distribution the bounded bin range covers.
//
//  * small scale  -> narrow coverage: many escape outliers (stored as
//    f32), stage-3 CR collapses toward 1, but in-band error shrinks;
//  * large scale  -> wide coverage: no outliers, stage-3 CR saturates at
//    code-width ratio, but the absolute quantization step grows and PSNR
//    drops.
// The default (8 sigma) sits at the paper-shaped operating point: DPZ-l
// stage-3 CR in the 2-4X band with DPZ-s pinned at ~2X.
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "metrics/metrics.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Ablation: score-normalization sigma scale ===\n\n";

  const Dataset ds = make_dataset("PHIS", opt.scale, opt.seed);
  DpzAnalysis analysis(ds.data);
  const std::size_t k = analysis.k_for_tve(0.99999);
  std::cout << "PHIS, k = " << k << " at five-nine TVE\n\n";

  TablePrinter table({"scheme", "sigma scale", "outliers", "CR stage3",
                      "end-to-end CR", "PSNR (dB)"});

  for (const bool strict : {false, true}) {
    QuantizerConfig qcfg;
    qcfg.error_bound = strict ? 1e-4 : 1e-3;
    qcfg.wide_codes = strict;
    for (const double sigma : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
      const auto ev = analysis.evaluate(k, qcfg, 6, sigma);
      table.add_row(
          {strict ? "DPZ-s" : "DPZ-l", fixed(sigma, 0),
           std::to_string(ev.accounting.outlier_count),
           fixed(ev.accounting.cr_stage3(), 3),
           fixed(compression_ratio(ds.data.size() * 4,
                                   ev.accounting.archive_bytes),
                 2),
           fixed(ev.stage3_error.psnr_db, 2)});
    }
  }

  table.print();
  std::cout << "(the default sigma scale of 8 reproduces Table III's "
               "stage-3 band: DPZ-l in 2-4X, DPZ-s ~2X)\n";
  maybe_write_csv(opt, "ablation_quantizer", table);
  return 0;
}
