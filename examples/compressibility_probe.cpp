// Compressibility probe (the paper's "estimate before you compress"
// workflow, SS IV-D): before committing a campaign to DPZ, probe each
// candidate dataset with the sampling strategy — VIF distribution, the
// estimated k_e, and the predicted compression-ratio band CR_p — and get
// a recommendation without running the full pipeline.
//
// Run:  ./compressibility_probe [--scale=0.2] [--tve=0.99999]
#include <iostream>

#include "core/blocking.h"
#include "core/dpz.h"
#include "core/sampling.h"
#include "data/datasets.h"
#include "stats/descriptive.h"
#include "stats/entropy.h"
#include "util/cli.h"
#include "util/format.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace dpz;
  const CliArgs args(argc, argv, {"scale", "tve", "seed"});
  const double scale = args.get_double("scale", 0.2);
  const double tve = args.get_double("tve", 0.99999);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));

  std::cout << "probing " << dataset_names().size()
            << " datasets at TVE " << fixed(tve * 100.0, 4)
            << "% (no full compression is run)\n\n";

  TablePrinter table({"dataset", "blocks MxN", "entropy b/v", "VIF median",
                      "linearity", "k_e", "CR_p band", "probe s",
                      "recommendation"});

  for (const std::string& name : dataset_names()) {
    const Dataset ds = make_dataset(name, scale, seed);

    // Shannon entropy of the raw values: the "inherent information"
    // measure the paper contrasts VIF against. Note HACC-vx has HIGH
    // entropy and LOW VIF — entropy alone cannot predict what k-PCA
    // removes.
    std::vector<double> sample;
    sample.reserve(std::min<std::size_t>(ds.data.size(), 65536));
    const std::size_t stride = std::max<std::size_t>(
        1, ds.data.size() / 65536);
    for (std::size_t i = 0; i < ds.data.size(); i += stride)
      sample.push_back(static_cast<double>(ds.data[i]));
    const double entropy = shannon_entropy(sample, 256);

    Timer timer;
    DpzConfig config = DpzConfig::strict();
    config.tve = tve;
    config.sampling_seed = seed;
    // compress's own Stage 1, then Algorithm 2 (VIF on the raw blocks).
    const SamplingReport report = dpz_probe(ds.data, config);
    const double probe_s = timer.elapsed();
    const BlockLayout layout = choose_block_layout(ds.data.size());

    std::string recommendation;
    if (report.low_linearity) {
      recommendation = "skip DPZ (low VIF)";
    } else if (report.cr_estimate_low > 10.0) {
      recommendation = "DPZ-l, aggressive";
    } else {
      recommendation = "DPZ-s";
    }

    table.add_row(
        {name, std::to_string(layout.m) + "x" + std::to_string(layout.n),
         fixed(entropy, 2), fixed(report.vif_median, 1),
         report.low_linearity ? "LOW" : "high",
         fixed(report.k_estimate, 1),
         fixed(report.cr_estimate_low, 1) + "-" +
             fixed(report.cr_estimate_high, 1) + "X",
         fixed(probe_s, 3), recommendation});
    std::cout << "probed " << name << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "(CR_p calibrates the stage-3/zlib factors on the sampled "
               "subsets; the band excludes the stored basis — see "
               "EXPERIMENTS.md. Note HACC-x: highest entropy of all, yet "
               "enormous VIF — value entropy cannot predict what the "
               "k-PCA stage removes.)\n";
  return 0;
}
