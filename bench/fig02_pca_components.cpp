// Figure 2: (a) overlay statistics of selected block-feature vectors of a
// FLDSC-class field and (b-d) the distributions of the 1st, 2nd, and 30th
// PCA components after projection. The paper's point: the 1st component
// captures the overall trend of the overlaid blocks while later
// components carry progressively less structure — the basis of k-PCA
// selection.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 2: block overlay and PCA component "
               "distributions (FLDSC) ===\n\n";

  const Dataset ds = make_dataset("FLDSC", opt.scale, opt.seed);
  DpzAnalysis analysis(ds.data);
  const BlockLayout& layout = analysis.layout();
  std::cout << "block layout: " << layout.m << " blocks x " << layout.n
            << " datapoints\n\n";

  // (a) overlay of 7 evenly spaced block-feature vectors (summarized as
  // per-block stats; the paper plots them on one axis).
  std::cout << "(a) selected block-feature vectors (DCT domain):\n";
  TablePrinter overlay({"block", "mean", "std", "min", "max"});
  for (std::size_t pick = 0; pick < 7; ++pick) {
    const std::size_t b = pick * (layout.m - 1) / 6;
    const auto row = analysis.dct_blocks().row(b);
    std::vector<double> v(row.begin(), row.end());
    overlay.add_row({"bk" + std::to_string(b + 1), scientific(mean_of(v), 2),
                     scientific(stddev_of(v), 2),
                     scientific(*std::min_element(v.begin(), v.end()), 2),
                     scientific(*std::max_element(v.begin(), v.end()), 2)});
  }
  overlay.print();

  // (b)-(d) component distributions.
  const std::size_t max_comp = std::min<std::size_t>(layout.m, 30);
  const Matrix scores = analysis.model(max_comp).transform(
      analysis.dct_blocks(), max_comp);

  TablePrinter comps({"component", "std (spread)", "share of 1st's std"});
  const auto row1 = scores.row(0);
  const double std1 = stddev_of({row1.begin(), row1.size()});
  for (const std::size_t c : {std::size_t{1}, std::size_t{2}, max_comp}) {
    const auto row = scores.row(c - 1);
    std::vector<double> v(row.begin(), row.end());
    std::cout << "\n(" << static_cast<char>('a' + c % 26)
              << ") distribution of PCA component " << c << ":\n"
              << Histogram::auto_ranged(v, 32).render_ascii(40);
    comps.add_row({std::to_string(c), scientific(stddev_of(v), 2),
                   fixed(100.0 * stddev_of(v) / std1, 2) + "%"});
  }

  std::cout << "\nComponent spread summary (information decays with "
               "component index):\n";
  comps.print();
  maybe_write_csv(opt, "fig02_pca_components", comps);
  return 0;
}
