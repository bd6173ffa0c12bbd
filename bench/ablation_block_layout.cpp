// Ablation of the block-decomposition design choice (SS IV-A): the paper
// claims that under M < N, larger M (more, shorter blocks) improves
// compressibility, and picks N/M as the smallest divisor ratio > 1.
//
// Sweeps every balanced divisor pair (M, N) of the flattened size and
// reports k, paper-accounting CR, end-to-end CR, and PSNR at a fixed TVE.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "metrics/metrics.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

// All divisor pairs with 8 <= M < N (coarse grid to keep runtime sane).
std::vector<BlockLayout> layout_candidates(std::size_t total) {
  std::vector<BlockLayout> layouts;
  for (std::size_t m = 8; m * m < total; ++m) {
    if (total % m != 0) continue;
    BlockLayout layout;
    layout.m = m;
    layout.n = total / m;
    layout.original_total = total;
    layout.padded = false;
    layouts.push_back(layout);
  }
  // Thin out to at most 7 representative pairs, keeping the extremes.
  if (layouts.size() > 7) {
    std::vector<BlockLayout> picked;
    for (std::size_t i = 0; i < 7; ++i)
      picked.push_back(layouts[i * (layouts.size() - 1) / 6]);
    layouts = std::move(picked);
  }
  return layouts;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Ablation: block layout (M x N choice) on FLDSC ===\n\n";

  const Dataset ds = make_dataset("FLDSC", opt.scale, opt.seed);
  const BlockLayout chosen = choose_block_layout(ds.data.size());
  std::cout << "automatic choice: M = " << chosen.m << ", N = " << chosen.n
            << "\n\n";

  TablePrinter table({"M", "N", "N/M", "k", "CR stage1&2 (M/k)",
                      "end-to-end CR", "PSNR (dB)"});

  for (const BlockLayout& layout : layout_candidates(ds.data.size())) {
    DpzAnalysis analysis(ds.data, false, layout);
    QuantizerConfig qcfg;
    qcfg.error_bound = 1e-4;
    qcfg.wide_codes = true;
    const std::size_t k = analysis.k_for_tve(0.99999);
    const auto ev = analysis.evaluate(k, qcfg);
    table.add_row(
        {std::to_string(layout.m), std::to_string(layout.n),
         fixed(static_cast<double>(layout.n) /
                   static_cast<double>(layout.m),
               1),
         std::to_string(k), fixed(ev.accounting.cr_stage12(), 2),
         fixed(compression_ratio(ds.data.size() * 4,
                                 ev.accounting.archive_bytes),
               2),
         fixed(ev.stage3_error.psnr_db, 2)});
    std::cout << "evaluated M = " << layout.m << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(paper: under M < N, larger M raises the compression "
               "ratio; the automatic rule picks the most balanced pair)\n";
  maybe_write_csv(opt, "ablation_block_layout", table);
  return 0;
}
