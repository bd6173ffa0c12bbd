// Figure 4: reconstruction error of four transform combinations on a
// FLDSC-class 2-D field at a fixed feature-count reduction of 5X (keep
// 20% of features, discard the rest):
//   (a) single-stage DCT      — keep the top 20% coefficients per block
//   (b) single-stage PCA      — keep the top 20% components (spatial)
//   (c) DCT on PCA components — PCA first, then per-component DCT top-20%
//   (d) PCA on DCT coefficients — DPZ's Stage 1&2 order
// The paper's finding to reproduce: (d) yields the smallest error and (c)
// the largest. Writes error maps (PPM, blue-white-red) next to the CSV.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/blocking.h"
#include "dsp/dct.h"
#include "io/image.h"
#include "linalg/pca.h"
#include "metrics/metrics.h"
#include "util/thread_pool.h"

namespace {

using namespace dpz;
using namespace dpz::bench;

constexpr double kKeepFraction = 0.2;  // 5X reduction in kept features

// Zeroes all but the `keep` largest-magnitude entries of each matrix row.
void keep_topk_per_row(Matrix& m, std::size_t keep) {
  parallel_for(0, m.rows(), [&](std::size_t i) {
    auto row = m.row(i);
    std::vector<double> mags(row.begin(), row.end());
    for (double& v : mags) v = std::abs(v);
    std::nth_element(mags.begin(), mags.begin() + (keep - 1), mags.end(),
                     std::greater<double>());
    const double threshold = mags[keep - 1];
    std::size_t kept = 0;
    for (double& v : row) {
      if (std::abs(v) >= threshold && kept < keep) {
        ++kept;
      } else {
        v = 0.0;
      }
    }
  });
}

void dct_rows(Matrix& m, bool inverse) {
  const DctPlan plan(m.cols());
  parallel_for(0, m.rows(), [&](std::size_t i) {
    auto row = m.row(i);
    if (inverse) {
      plan.inverse(row, row);
    } else {
      plan.forward(row, row);
    }
  });
}

FloatArray assemble(const Matrix& blocks, const BlockLayout& layout,
                    const FloatArray& like) {
  FloatArray out(like.shape());
  from_blocks(blocks, layout, out.flat());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv);
  std::cout << "=== Figure 4: transform combinations at 5X feature "
               "reduction (FLDSC) ===\n\n";

  const Dataset ds = make_dataset("FLDSC", opt.scale, opt.seed);
  const BlockLayout layout = choose_block_layout(ds.data.size());
  const Matrix spatial = to_blocks(ds.data.flat(), layout);
  const auto keep_cols = std::max<std::size_t>(
      1, static_cast<std::size_t>(kKeepFraction *
                                  static_cast<double>(layout.n)));
  const auto keep_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(kKeepFraction *
                                  static_cast<double>(layout.m)));

  struct Combo {
    std::string name;
    FloatArray reconstruction;
  };
  std::vector<Combo> combos;

  // (a) DCT only: top-20% coefficients per block.
  {
    Matrix z = spatial;
    dct_rows(z, false);
    keep_topk_per_row(z, keep_cols);
    dct_rows(z, true);
    combos.push_back({"DCT", assemble(z, layout, ds.data)});
  }

  // (b) PCA only (spatial domain): top-20% components.
  const PcaModel spatial_pca =
      attach_top_components(fit_pca_spectrum(spatial), layout.m);
  {
    const Matrix scores = spatial_pca.transform(spatial, keep_rows);
    combos.push_back(
        {"PCA", assemble(spatial_pca.inverse_transform(scores), layout,
                         ds.data)});
  }

  // (c) DCT on PCA components: full PCA first, then per-component DCT with
  // top-20% coefficient selection.
  {
    Matrix scores = spatial_pca.transform(spatial, layout.m);
    dct_rows(scores, false);
    keep_topk_per_row(scores, keep_cols);
    dct_rows(scores, true);
    combos.push_back(
        {"DCT on PCA", assemble(spatial_pca.inverse_transform(scores),
                                layout, ds.data)});
  }

  // (d) PCA on DCT coefficients (DPZ Stage 1&2): block DCT, then top-20%
  // PCA components.
  {
    Matrix z = spatial;
    dct_rows(z, false);
    const PcaModel dct_pca =
        attach_top_components(fit_pca_spectrum(z), keep_rows);
    Matrix scores = dct_pca.transform(z, keep_rows);
    Matrix back = dct_pca.inverse_transform(scores);
    dct_rows(back, true);
    combos.push_back({"PCA on DCT", assemble(back, layout, ds.data)});
  }

  TablePrinter table({"combination", "MSE", "PSNR (dB)", "max abs err",
                      "mean rel err"});
  for (const Combo& combo : combos) {
    const ErrorStats err =
        compute_error_stats(ds.data.flat(), combo.reconstruction.flat());
    table.add_row({combo.name, scientific(err.mse, 3),
                   fixed(err.psnr_db, 2), scientific(err.max_abs_error, 3),
                   scientific(err.mean_rel_error, 3)});

    // Error map for the figure.
    FloatArray error_field(ds.data.shape());
    for (std::size_t i = 0; i < error_field.size(); ++i)
      error_field[i] = ds.data[i] - combo.reconstruction[i];
    std::string file = combo.name;
    std::replace(file.begin(), file.end(), ' ', '_');
    write_error_ppm(artifact_path(opt, "fig04_error_" + file + ".ppm"),
                    error_field);
  }
  table.print();
  std::cout << "(paper: 'PCA on DCT' shows the least error, 'DCT on PCA' "
               "the most; error maps written to "
            << opt.outdir << ")\n";
  maybe_write_csv(opt, "fig04_transform_combos", table);
  return 0;
}
