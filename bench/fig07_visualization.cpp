// Figure 7: visualization of the CLDHGH field, original vs decompressed,
// at the paper's two operating points:
//   (b)-(d) all three compressors tuned to CR ~ 10.5X  -> compare PSNR;
//   (d)-(f) all three tuned to PSNR ~ 26 dB            -> compare CR.
// Writes PGM renders for visual inspection and prints the CR/PSNR rows.
// Shape to reproduce: at matched CR, DPZ's PSNR rivals SZ and crushes
// ZFP; at matched (low) PSNR, DPZ's CR is far higher than ZFP's.
#include <cmath>
#include <iostream>
#include <memory>

#include "baselines/szlike.h"
#include "baselines/zfplike.h"
#include "bench_common.h"
#include "core/analysis.h"
#include "io/image.h"
#include "metrics/metrics.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

struct OperatingPoint {
  std::string compressor;
  std::string setting;
  double cr = 0.0;
  double psnr = 0.0;
  FloatArray reconstruction;
};

// Sweeps a family of settings and returns the point whose `metric` first
// meets `target` (metrics are monotone along each sweep).
template <typename Fn>
OperatingPoint find_point(const FloatArray& data, Fn&& evaluate_setting,
                          const std::vector<double>& settings,
                          bool match_cr, double target) {
  OperatingPoint best;
  double best_gap = 1e300;
  for (const double s : settings) {
    OperatingPoint p = evaluate_setting(s);
    const double value = match_cr ? p.cr : p.psnr;
    const double gap = std::abs(value - target);
    if (gap < best_gap) {
      best_gap = gap;
      best = std::move(p);
    }
  }
  (void)data;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 7: CLDHGH visualization operating points ===\n\n";

  const Dataset ds = make_dataset("CLDHGH", opt.scale, opt.seed);
  const std::uint64_t original_bytes = ds.data.size() * sizeof(float);
  write_pgm(artifact_path(opt, "fig07_original.pgm"), ds.data, 0.0F, 1.0F);

  DpzAnalysis analysis(ds.data);

  // Setting <= 0 selects knee-point k (the aggressive low-rate end of
  // DPZ's operating curve); positive settings are TVE thresholds.
  auto dpz_point = [&](double setting) {
    OperatingPoint p;
    QuantizerConfig qcfg;
    qcfg.error_bound = 1e-4;
    qcfg.wide_codes = true;
    const std::size_t k = setting <= 0.0
                              ? analysis.k_for_knee(KneeFit::kFit1D)
                              : analysis.k_for_tve(setting);
    const auto ev = analysis.evaluate(k, qcfg);
    p.compressor = "DPZ-s";
    p.setting = setting <= 0.0 ? "knee(1D)" : tve_label(setting);
    p.cr = compression_ratio(original_bytes, ev.accounting.archive_bytes);
    p.psnr = ev.stage3_error.psnr_db;
    p.reconstruction = ev.reconstructed;
    return p;
  };
  auto sz_point = [&](double rel) {
    OperatingPoint p;
    SzLikeConfig config;
    config.relative_bound = rel;
    const auto archive = szlike_compress(ds.data, config);
    p.compressor = "SZ-like";
    p.setting = "rel " + scientific(rel, 0);
    p.cr = compression_ratio(original_bytes, archive.size());
    p.reconstruction = szlike_decompress(archive);
    p.psnr = compute_error_stats(ds.data.flat(), p.reconstruction.flat())
                 .psnr_db;
    return p;
  };
  auto zfp_point = [&](double precision) {
    OperatingPoint p;
    ZfpLikeConfig config;
    config.precision = static_cast<unsigned>(precision);
    const auto archive = zfplike_compress(ds.data, config);
    p.compressor = "ZFP-like";
    p.setting = "prec " + std::to_string(config.precision);
    p.cr = compression_ratio(original_bytes, archive.size());
    p.reconstruction = zfplike_decompress(archive);
    p.psnr = compute_error_stats(ds.data.flat(), p.reconstruction.flat())
                 .psnr_db;
    return p;
  };

  std::vector<double> tves = tve_ladder();
  tves.insert(tves.begin(), 0.0);  // knee-point: the aggressive end
  const std::vector<double> rels{1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5};
  const std::vector<double> precisions{2, 4, 6, 8, 10, 12, 16, 20, 24};

  TablePrinter table(
      {"panel", "compressor", "setting", "CR", "PSNR (dB)"});

  // Matched-CR panel (paper: CR ~ 10.5X).
  const double target_cr = 10.5;
  std::cout << "matching CR ~ " << target_cr << "X...\n";
  int panel = 'b';
  for (const OperatingPoint& p :
       {find_point(ds.data, dpz_point, tves, true, target_cr),
        find_point(ds.data, sz_point, rels, true, target_cr),
        find_point(ds.data, zfp_point, precisions, true, target_cr)}) {
    table.add_row({std::string(1, static_cast<char>(panel)) + " (CR~10.5)",
                   p.compressor, p.setting, fixed(p.cr, 1),
                   fixed(p.psnr, 1)});
    write_pgm(artifact_path(opt, "fig07_cr10_" + p.compressor + ".pgm"),
              p.reconstruction, 0.0F, 1.0F);
    ++panel;
  }

  // Matched-PSNR panel (paper: PSNR ~ 26 dB).
  const double target_psnr = 26.0;
  std::cout << "matching PSNR ~ " << target_psnr << " dB...\n";
  for (const OperatingPoint& p :
       {find_point(ds.data, dpz_point, tves, false, target_psnr),
        find_point(ds.data, sz_point, rels, false, target_psnr),
        find_point(ds.data, zfp_point, precisions, false, target_psnr)}) {
    table.add_row({std::string(1, static_cast<char>(panel)) + " (PSNR~26)",
                   p.compressor, p.setting, fixed(p.cr, 1),
                   fixed(p.psnr, 1)});
    write_pgm(artifact_path(opt, "fig07_psnr26_" + p.compressor + ".pgm"),
              p.reconstruction, 0.0F, 1.0F);
    ++panel;
  }

  std::cout << "\n";
  table.print();
  std::cout << "(renders written to " << opt.outdir
            << "; paper: at CR~10.5 DPZ/SZ >> ZFP in PSNR, at PSNR~26 DPZ "
               ">> SZ >> ZFP in CR)\n";
  maybe_write_csv(opt, "fig07_visualization", table);
  return 0;
}
