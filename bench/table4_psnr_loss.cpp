// Table IV: accuracy lost between Stage 1&2 (exact k-PCA scores) and
// Stage 3 (quantized scores), in delta-PSNR (dB), versus TVE.
//
// Shapes to reproduce: the loss grows as TVE tightens (the Stage-1&2
// reference keeps improving while quantization noise stays put), and
// DPZ-l loses far more than DPZ-s at "seven-nine" (the paper measures up
// to ~20 dB for DPZ-l vs a few dB for DPZ-s).
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Table IV: delta PSNR between Stage 1&2 and Stage 3 "
               "===\n\n";

  TablePrinter table({"dataset", "TVE", "scheme", "stage1&2 PSNR",
                      "stage3 PSNR", "delta PSNR (dB)"});

  for (const std::string& name : table_datasets()) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzAnalysis analysis(ds.data);

    for (const double tve : tve_table_points()) {
      const std::size_t k = analysis.k_for_tve(tve);
      const double exact =
          compute_error_stats(ds.data.flat(),
                              analysis.reconstruct_exact(k).flat())
              .psnr_db;
      for (const bool strict : {false, true}) {
        QuantizerConfig qcfg;
        qcfg.error_bound = strict ? 1e-4 : 1e-3;
        qcfg.wide_codes = strict;
        const auto ev = analysis.evaluate(k, qcfg);
        const double quantized = ev.stage3_error.psnr_db;
        const double delta =
            std::isinf(exact) ? 0.0 : std::max(0.0, exact - quantized);
        table.add_row({name, tve_label(tve), strict ? "DPZ-s" : "DPZ-l",
                       std::isinf(exact) ? "inf" : fixed(exact, 2),
                       fixed(quantized, 2), fixed(delta, 3)});
      }
    }
    std::cout << "finished " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(paper: the loss rises with TVE and DPZ-l loses far more "
               "than DPZ-s at seven-nine)\n";
  maybe_write_csv(opt, "table4_psnr_loss", table);
  return 0;
}
