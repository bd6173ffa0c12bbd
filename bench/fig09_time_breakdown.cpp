// Figure 9: breakdown of DPZ compression time by stage across datasets.
// Shape to reproduce: Stage 2 (PCA) and Stage 3 (quantization) dominate,
// since both scale with the coefficient dimensions (SS V-C5).
//
// Every column is a share of the wall time around dpz_compress; the
// projection (block matrix -> scores, between Stage 2 and Stage 3) has
// its own column, and "other" is the residual no span covers (the
// stored-raw check, call overhead).
#include <iostream>

#include "bench_common.h"
#include "core/dpz.h"
#include "util/timer.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 9: DPZ compression-time breakdown by stage "
               "===\n\n";

  TablePrinter table({"dataset", "total s", "stage1 DCT %", "stage2 PCA %",
                      "projection %", "stage3 quant %", "zlib %",
                      "other %"});

  for (const std::string& name : table_datasets()) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzConfig config = DpzConfig::strict();
    config.tve = 0.99999;
    DpzStats stats;
    const Timer timer;
    const auto archive = dpz_compress(ds.data, config, &stats);
    const double wall = timer.elapsed();
    (void)archive;

    auto pct = [&](double seconds) {
      return fixed(100.0 * seconds / wall, 1) + "%";
    };
    table.add_row({name, fixed(wall, 3),
                   pct(stats.timers.total("stage1_dct")),
                   pct(stats.timers.total("stage2_pca")),
                   pct(stats.timers.total("stage2_project")),
                   pct(stats.timers.total("stage3_quantize")),
                   pct(stats.timers.total("zlib_encode")),
                   pct(wall - stats.timers.grand_total())});
    std::cout << "finished " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(paper: Stage 2 and Stage 3 contribute most of the cost)\n";
  maybe_write_csv(opt, "fig09_time_breakdown", table);
  return 0;
}
