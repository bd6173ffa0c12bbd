// Table III: per-stage compression-ratio breakdown vs TVE on six
// datasets, both DPZ schemes. Stages use the paper's accounting:
//   Stage 1&2  = M / k                    (feature reduction)
//   Stage 3    = f32 scores / (codes + escaped outliers)
//   zlib       = stage-3 bytes / zlib'd bytes
// Shapes to reproduce: Stage-1&2 CR falls as TVE tightens; Stage-3 and
// zlib CRs rise with TVE; DPZ-l's Stage 3 sits between 2X and 4X while
// DPZ-s stays ~2X; CESM-class data beats JHTDB which beats HACC-vx.
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
  std::cout << "=== Table III: per-stage CR breakdown (paper accounting) "
               "===\n\n";

  TablePrinter table({"dataset", "TVE", "scheme", "k", "CR stage1&2",
                      "CR stage3", "CR zlib", "end-to-end CR"});

  for (const std::string& name : table_datasets()) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzAnalysis analysis(ds.data);
    const std::uint64_t original_bytes = ds.data.size() * sizeof(float);

    for (const double tve : tve_table_points()) {
      const std::size_t k = analysis.k_for_tve(tve);
      for (const bool strict : {false, true}) {
        QuantizerConfig qcfg;
        qcfg.error_bound = strict ? 1e-4 : 1e-3;
        qcfg.wide_codes = strict;
        const auto ev = analysis.evaluate(k, qcfg);
        const DpzStats& st = ev.accounting;
        table.add_row({name, tve_label(tve), strict ? "DPZ-s" : "DPZ-l",
                       std::to_string(k), fixed(st.cr_stage12(), 3),
                       fixed(st.cr_stage3(), 3), fixed(st.cr_zlib(), 3),
                       fixed(compression_ratio(original_bytes,
                                               st.archive_bytes),
                             2)});
      }
    }
    std::cout << "finished " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(note: 'CR stage1&2' = M/k like the paper, which excludes "
               "the stored PCA basis; 'end-to-end CR' includes it)\n";
  maybe_write_csv(opt, "table3_cr_breakdown", table);
  return 0;
}
