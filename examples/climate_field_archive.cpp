// Climate-archive scenario (the paper's CESM-ATM motivation): a climate
// model emits several 2-D diagnostic fields per timestep; the archive
// pipeline compresses each field with the scheme a per-field probe
// recommends, writes the archives to disk, and verifies them on read-back.
//
// Shows: multi-field batching, using the sampling probe to pick loose vs
// strict per field, on-disk round-trips, and a summary table.
//
// Run:  ./climate_field_archive [--scale=0.2] [--outdir=climate_archives]
#include <filesystem>
#include <iostream>

#include "core/dpz.h"
#include "core/sampling.h"
#include "data/datasets.h"
#include "io/file_io.h"
#include "metrics/metrics.h"
#include "util/cli.h"
#include "util/format.h"

int main(int argc, char** argv) {
  using namespace dpz;
  const CliArgs args(argc, argv, {"scale", "outdir", "seed"});
  const double scale = args.get_double("scale", 0.2);
  const std::string outdir = args.get_string("outdir", "climate_archives");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));
  std::filesystem::create_directories(outdir);

  const std::vector<std::string> fields{"CLDHGH", "CLDLOW", "PHIS",
                                        "FREQSH", "FLDSC"};
  TablePrinter table({"field", "probe VIF", "scheme", "archive", "CR",
                      "PSNR (dB)", "verified"});

  std::uint64_t total_in = 0, total_out = 0;
  for (const std::string& name : fields) {
    const Dataset ds = make_dataset(name, scale, seed);

    // Probe compressibility first (Algorithm 2, VIF on the raw blocks):
    // high collinearity -> the loose scheme is safe; low -> use strict
    // codes.
    DpzConfig probe = DpzConfig::strict();
    probe.tve = 0.99999;
    probe.sampling_seed = seed;
    const SamplingReport report = dpz_probe(ds.data, probe);

    DpzConfig config =
        report.low_linearity ? DpzConfig::strict() : DpzConfig::loose();
    config.tve = 0.99999;

    DpzStats stats;
    const auto archive = dpz_compress(ds.data, config, &stats);
    const std::string path = outdir + "/" + name + ".dpz";
    write_bytes(path, archive);

    // Read back and verify.
    const auto loaded = read_bytes(path);
    const FloatArray restored = dpz_decompress(loaded);
    const ErrorStats err =
        compute_error_stats(ds.data.flat(), restored.flat());
    const bool verified = restored.shape() == ds.data.shape() &&
                          err.psnr_db > 30.0;

    total_in += ds.data.size() * sizeof(float);
    total_out += archive.size();
    table.add_row({name, fixed(report.vif_median, 1),
                   config.scheme == DpzScheme::kLoose ? "DPZ-l" : "DPZ-s",
                   human_bytes(archive.size()),
                   fixed(stats.cr_archive(), 2), fixed(err.psnr_db, 2),
                   verified ? "yes" : "NO"});
    std::cout << "archived " << name << " -> " << path << "\n";
  }

  std::cout << "\n";
  table.print();
  std::cout << "campaign total: " << human_bytes(total_in) << " -> "
            << human_bytes(total_out) << " ("
            << fixed(compression_ratio(total_in, total_out), 2) << "X)\n";
  return 0;
}
