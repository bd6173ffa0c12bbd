// Figure 10 + SS V-C6: the sampling strategy end to end.
//   (1) VIF distributions of HACC-vx / Isotropic / PHIS at sampling rates
//       2.5% and 1% (box-plot five-number summaries) — shape: HACC-vx sits
//       below the cutoff of 5, the others clearly above, already at 1%.
//   (2) Parameter-selection accuracy: estimate k_e and the CR_p band from
//       S = 5 and S = 10 subsets, then check whether the actually achieved
//       paper-accounting CR falls inside the band. Shape: S = 10 predicts
//       more reliably than S = 5 (paper: 76.6% vs 63.3% hit rate).
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/dpz.h"
#include "core/sampling.h"
#include "metrics/metrics.h"
#include "stats/descriptive.h"
#include "stats/vif.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 10: VIF probe + sampling-strategy accuracy "
               "===\n\n";

  // ---- VIF box plots ---------------------------------------------------
  TablePrinter vif_table({"dataset", "SR", "min", "q1", "median", "q3",
                          "max", "below cutoff (5)?"});
  for (const char* name : {"HACC-vx", "Isotropic", "PHIS"}) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    for (const double sr : {0.025, 0.01}) {
      DpzConfig probe;
      probe.vif_sampling_rate = sr;
      probe.sampling_seed = opt.seed + 7;
      const BoxStats box = box_stats(dpz_probe(ds.data, probe).vifs);
      vif_table.add_row({name, fixed(100.0 * sr, 1) + "%",
                         fixed(box.min, 2), fixed(box.q1, 2),
                         fixed(box.median, 2), fixed(box.q3, 2),
                         fixed(box.max, 2),
                         box.median < kVifCutoff ? "yes" : "no"});
    }
    std::cout << "probed " << name << "\n";
  }
  std::cout << "\n";
  vif_table.print();
  std::cout << "(paper: HACC-vx falls below the cutoff already at SR = 1%, "
               "Isotropic and PHIS sit clearly above)\n\n";

  // ---- CR_p prediction accuracy -----------------------------------------
  TablePrinter pred_table({"dataset", "S", "k_e", "full k", "CR_p low",
                           "CR_p high", "achieved CR", "hit?"});
  int hits5 = 0, total5 = 0, hits10 = 0, total10 = 0;

  for (const std::string& name : table_datasets()) {
    const Dataset ds = make_dataset(name, opt.scale, opt.seed);
    DpzAnalysis analysis(ds.data);

    for (const std::size_t s : {std::size_t{5}, std::size_t{10}}) {
      DpzConfig config = DpzConfig::strict();
      config.subset_count = s;
      config.tve = 0.99999;
      config.sampling_seed = opt.seed;
      const SamplingReport report = dpz_probe(ds.data, config);

      // Achieved CR in the paper's accounting (stage factors, no basis),
      // using the sampled k.
      QuantizerConfig qcfg;
      qcfg.error_bound = 1e-4;
      qcfg.wide_codes = true;
      const auto ev = analysis.evaluate(report.full_k, qcfg);
      const double achieved = ev.accounting.cr_stage12() *
                              ev.accounting.cr_stage3() *
                              ev.accounting.cr_zlib();
      const bool hit = achieved >= report.cr_estimate_low &&
                       achieved <= report.cr_estimate_high;
      if (s == 5) {
        ++total5;
        hits5 += hit ? 1 : 0;
      } else {
        ++total10;
        hits10 += hit ? 1 : 0;
      }
      pred_table.add_row(
          {name, std::to_string(s), fixed(report.k_estimate, 1),
           std::to_string(report.full_k), fixed(report.cr_estimate_low, 2),
           fixed(report.cr_estimate_high, 2), fixed(achieved, 2),
           hit ? "yes" : "no"});
    }
    std::cout << "sampled " << name << "\n";
  }

  std::cout << "\n";
  pred_table.print();
  std::cout << "hit rate: S=5 " << hits5 << "/" << total5 << ", S=10 "
            << hits10 << "/" << total10
            << " (paper: 63.3% vs 76.6% — higher S predicts better)\n";
  maybe_write_csv(opt, "fig10_vif_sampling", pred_table);
  return 0;
}
