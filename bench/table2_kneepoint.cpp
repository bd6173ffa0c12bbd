// Table II: compression performance of knee-point detection with the two
// curve fits (1-D interpolation vs polynomial) on six datasets, for both
// DPZ schemes. Reports CR, PSNR, and the mean range-relative error theta.
//
// Shape to reproduce: knee-point selection is aggressive (high CR at
// modest PSNR); the polynomial fit trades CR for accuracy (the paper
// measures 1.5X-5X lower CR with polyn but equal-or-better PSNR).
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
  std::cout << "=== Table II: knee-point detection, 1D vs polynomial "
               "interpolation ===\n\n";

  TablePrinter table({"dataset", "scheme", "fit", "k", "CR", "PSNR (dB)",
                      "mean theta"});

  for (const std::string& name : table_datasets()) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzAnalysis analysis(ds.data);
    const std::uint64_t original_bytes = ds.data.size() * sizeof(float);

    for (const bool strict : {false, true}) {
      QuantizerConfig qcfg;
      qcfg.error_bound = strict ? 1e-4 : 1e-3;
      qcfg.wide_codes = strict;
      for (const KneeFit fit : {KneeFit::kFit1D, KneeFit::kFitPolyn}) {
        const std::size_t k = analysis.k_for_knee(fit);
        const auto ev = analysis.evaluate(k, qcfg);
        const double cr = compression_ratio(original_bytes,
                                            ev.accounting.archive_bytes);
        table.add_row(
            {name, strict ? "DPZ-s" : "DPZ-l",
             fit == KneeFit::kFit1D ? "1D" : "polyn", std::to_string(k),
             fixed(cr, 2), fixed(ev.stage3_error.psnr_db, 2),
             scientific(ev.stage3_error.mean_rel_error, 2)});
      }
    }
    std::cout << "finished " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(paper: polyn fitting improves accuracy but lowers CR by "
               "1.5X-5X)\n";
  maybe_write_csv(opt, "table2_kneepoint", table);
  return 0;
}
