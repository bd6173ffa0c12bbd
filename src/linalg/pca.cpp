#include "linalg/pca.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "linalg/eigen_sym.h"
#include "simd/simd.h"
#include "util/thread_pool.h"

namespace dpz {

std::vector<double> PcaModel::tve_curve() const {
  const std::size_t m = eigenvalues.size();
  std::vector<double> tve(m, 1.0);
  double total = 0.0;
  for (const double l : eigenvalues) total += l;
  if (total <= 0.0) return tve;  // degenerate (constant data): all-ones
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    acc += eigenvalues[i];
    tve[i] = acc / total;
  }
  tve[m - 1] = 1.0;  // guard against rounding drift
  return tve;
}

std::size_t PcaModel::k_for_tve(double threshold) const {
  DPZ_REQUIRE(threshold > 0.0 && threshold <= 1.0,
              "TVE threshold must be in (0, 1]");
  const std::vector<double> tve = tve_curve();
  for (std::size_t k = 0; k < tve.size(); ++k)
    if (tve[k] >= threshold) return k + 1;
  return tve.size();
}

namespace {

// Geometry of the panel product: 4-row coefficient tiles
// (simd::KernelTable::panel_accumulate's register tile is 4 x 8),
// 8-column panels, depth blocks of kDepthBlock terms, and groups of
// kGroupPanels panels that share each packed coefficient tile, so one
// tile's packing (a division per entry in the projection) is spread
// over 128 columns. Both buffers live on the stack, 8 KiB of panels
// and 256 B of tile, whatever M, k and N are. They are kept that small
// because a pool thread's stack pages stay resident once touched: a
// 64-deep block (64 KiB of panels) raised dpz_bench's peak RSS by up to
// 0.6 MiB, and depth 8 runs within 10% of it.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kPanelCols = 8;
constexpr std::size_t kDepthBlock = 8;
constexpr std::size_t kGroupPanels = 16;
constexpr std::size_t kGroupCols = kGroupPanels * kPanelCols;
constexpr std::size_t kPanelStride = kDepthBlock * kPanelCols;

// out(r, c) += sum of A(r, t) * P(t, c) over t in [0, depth), in
// ascending t, with zero coefficients skipped; then finish(c0, cols)
// runs on each finished group of columns [c0, c0 + cols).
//  * pack_a(r0, rows, t0, t1, tile) writes A(r0 + r, t) to
//    tile[4 * (t - t0) + r] for r < rows (the rest is zero already);
//  * pack_p(t0, t1, c0, cols, panel) writes P(t, c0 + c) to
//    panel[8 * (t - t0) + c] for c < cols (likewise).
// A panel is passed as finite when its sum of squares is: then every
// value is, and a sum that overflows only sends the panel down the
// masked path, which gives the same bits.
// Work splits over column groups. One participant owns every element
// of its group and runs each element's whole chain in order (a depth
// block resumes from the stored partial, which is exact), so the result
// is the same bits at every thread count. Tail tiles go through a 4 x 8
// copy, so they run the same kernel in the same order.
template <typename PackA, typename PackP, typename Finish>
void panel_product(Matrix& out, std::size_t depth, const PackA& pack_a,
                   const PackP& pack_p, const Finish& finish) {
  const std::size_t rows = out.rows();
  const std::size_t n = out.cols();
  const simd::KernelTable& ops = simd::kernels();
  parallel_for(0, (n + kGroupCols - 1) / kGroupCols, [&](std::size_t g) {
    const std::size_t c0 = g * kGroupCols;
    const std::size_t cols = std::min(kGroupCols, n - c0);
    const std::size_t panels = (cols + kPanelCols - 1) / kPanelCols;
    std::array<double, kGroupPanels * kPanelStride> panel;
    std::array<double, kDepthBlock * kTileRows> tile;
    std::array<bool, kGroupPanels> finite{};
    if (cols % kPanelCols != 0) panel.fill(0.0);
    for (std::size_t t0 = 0; t0 < depth; t0 += kDepthBlock) {
      const std::size_t t1 = std::min(depth, t0 + kDepthBlock);
      for (std::size_t p = 0; p < panels; ++p) {
        double* pp = panel.data() + p * kPanelStride;
        pack_p(t0, t1, c0 + p * kPanelCols,
               std::min(kPanelCols, cols - p * kPanelCols), pp);
        finite[p] = std::isfinite(ops.dot(pp, pp, (t1 - t0) * kPanelCols));
      }
      for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
        const std::size_t tr = std::min(kTileRows, rows - r0);
        if (tr < kTileRows) tile.fill(0.0);
        pack_a(r0, tr, t0, t1, tile.data());
        for (std::size_t p = 0; p < panels; ++p) {
          const double* pp = panel.data() + p * kPanelStride;
          const std::size_t pc = std::min(kPanelCols, cols - p * kPanelCols);
          double* dst = &out(r0, c0 + p * kPanelCols);
          if (tr == kTileRows && pc == kPanelCols) {
            ops.panel_accumulate(tile.data(), pp, t1 - t0, finite[p], dst,
                                 n);
            continue;
          }
          std::array<double, kTileRows * kPanelCols> part{};
          for (std::size_t r = 0; r < tr; ++r)
            std::copy_n(dst + r * n, pc, part.data() + r * kPanelCols);
          ops.panel_accumulate(tile.data(), pp, t1 - t0, finite[p],
                               part.data(), kPanelCols);
          for (std::size_t r = 0; r < tr; ++r)
            std::copy_n(part.data() + r * kPanelCols, pc, dst + r * n);
        }
      }
    }
    finish(c0, cols);
  });
}

}  // namespace

Matrix pca_project(const Matrix& components, std::span<const double> mean,
                   std::span<const double> scale, const Matrix& x,
                   std::size_t k) {
  const std::size_t m = mean.size();
  DPZ_REQUIRE(x.rows() == m, "PCA transform feature-count mismatch");
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");

  // scores(j, c) = sum over ascending i of d(i, j) * (x(i, c) - mean[i]),
  // d(i, j) = components(i, j) / scale[i]: the panel holds the centered
  // x, the coefficient tile the scaled basis, transposed.
  Matrix scores(k, x.cols());
  panel_product(
      scores, m,
      [&](std::size_t r0, std::size_t rows, std::size_t t0, std::size_t t1,
          double* tile) {
        for (std::size_t i = t0; i < t1; ++i, tile += kTileRows) {
          const double* d = components.row(i).data() + r0;
          for (std::size_t r = 0; r < rows; ++r) tile[r] = d[r] / scale[i];
        }
      },
      [&](std::size_t t0, std::size_t t1, std::size_t c0, std::size_t cols,
          double* panel) {
        for (std::size_t i = t0; i < t1; ++i, panel += kPanelCols) {
          const double* row = x.row(i).data() + c0;
          for (std::size_t c = 0; c < cols; ++c) panel[c] = row[c] - mean[i];
        }
      },
      [](std::size_t /*c0*/, std::size_t /*cols*/) {});
  return scores;
}

Matrix pca_back_project(const Matrix& components,
                        std::span<const double> mean,
                        std::span<const double> scale, const Matrix& scores) {
  const std::size_t m = mean.size();
  const std::size_t k = scores.rows();
  DPZ_REQUIRE(k >= 1 && k <= m, "score rank must be in [1, M]");
  const simd::KernelTable& ops = simd::kernels();

  // x(i, c) = sum over ascending j of components(i, j) * scores(j, c),
  // then x * scale[i] + mean[i] while the group is cache-hot: the panel
  // holds the scores, the coefficient tile the basis rows' leading k
  // columns.
  Matrix x(m, scores.cols());
  panel_product(
      x, k,
      [&](std::size_t r0, std::size_t rows, std::size_t t0, std::size_t t1,
          double* tile) {
        for (std::size_t r = 0; r < rows; ++r) {
          const double* d = components.row(r0 + r).data();
          for (std::size_t j = t0; j < t1; ++j)
            tile[kTileRows * (j - t0) + r] = d[j];
        }
      },
      [&](std::size_t t0, std::size_t t1, std::size_t c0, std::size_t cols,
          double* panel) {
        for (std::size_t j = t0; j < t1; ++j, panel += kPanelCols)
          std::copy_n(scores.row(j).data() + c0, cols, panel);
      },
      [&](std::size_t c0, std::size_t cols) {
        for (std::size_t i = 0; i < m; ++i)
          ops.scale_shift(scale[i], mean[i], &x(i, c0), cols);
      });
  return x;
}

namespace {

// One feature's mean: a serial left-to-right sum, the one order every
// caller shares, so the means are the same bits on every thread count.
double row_mean(const double* row, std::size_t n) {
  double sum = 0.0;
  for (std::size_t c = 0; c < n; ++c) sum += row[c];
  return sum / static_cast<double>(n);
}

}  // namespace

Matrix covariance(Matrix x) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  DPZ_REQUIRE(n >= 1, "covariance needs at least one sample");
  const simd::KernelTable& ops = simd::kernels();

  // Center each row in place so the O(m^2 n) pair loop runs plain dots
  // instead of re-subtracting the means per element. (x - mu) * 1.0 is
  // exact for every double, and dot and dot_centered share the same
  // sixteen-lane reduction tree, so this is bit-identical to the fused
  // form.
  parallel_for(0, m, [&](std::size_t i) {
    double* row = x.row(i).data();
    ops.center_scale(row, row_mean(row, n), 1.0, row, n);
  });

  // Blocks of four i-rows share each streamed j-row: the first dot pulls
  // it out of L2, the next three hit L1. Block b fills columns
  // [4b, m) of its rows, so the work shrinks down the triangle; one
  // index runs block p with block nb - 1 - p, and every index then
  // carries about m + 4 columns, so contiguous chunks balance at any
  // pool width. Every (i, j) dot is the same call in any order, so the
  // entries are bit-identical to the row-at-a-time loop.
  constexpr std::size_t kRowBlock = 4;
  const std::size_t nb = (m + kRowBlock - 1) / kRowBlock;
  Matrix cov(m, m);
  auto fill_block = [&](std::size_t bi) {
    const std::size_t i0 = bi * kRowBlock;
    const std::size_t i1 = std::min(m, i0 + kRowBlock);
    for (std::size_t j = i0; j < m; ++j) {
      const double* cj = x.row(j).data();
      for (std::size_t i = i0; i < i1 && i <= j; ++i)
        cov(i, j) = ops.dot(x.row(i).data(), cj, n) / static_cast<double>(n);
    }
  };
  parallel_for(0, (nb + 1) / 2, [&](std::size_t p) {
    fill_block(p);
    if (nb - 1 - p != p) fill_block(nb - 1 - p);  // odd nb: middle once
  });
  // Mirror the upper triangle (disjoint writes above, so safe afterwards).
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < i; ++j) cov(i, j) = cov(j, i);
  return cov;
}

PcaSpectrum fit_pca_spectrum(const Matrix& x, bool standardize) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  DPZ_REQUIRE(n >= 2, "PCA needs at least two samples per feature");
  const simd::KernelTable& ops = simd::kernels();

  // Per feature, in one pass while its row is cache-hot: the mean, the
  // variance when standardizing, and the centered (optionally scaled)
  // row. Rows are independent, so this runs on the pool.
  PcaSpectrum spec;
  PcaModel& model = spec.model;
  model.mean.resize(m);
  model.scale.assign(m, 1.0);
  Matrix centered(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    const double* row = x.row(i).data();
    const double mu = row_mean(row, n);
    model.mean[i] = mu;
    if (standardize) {
      const double var =
          ops.dot_centered(row, mu, row, mu, n) / static_cast<double>(n);
      if (var > 0.0) model.scale[i] = std::sqrt(var);
    }
    ops.center_scale(row, mu, 1.0 / model.scale[i], centered.row(i).data(),
                     n);
  });

  // The centered copy's means are ~0 but not exactly 0; covariance
  // re-centers it in place (the same per-row operations a fresh copy
  // would get), so the entries match covariance of the copy bit for
  // bit. The copy moves in and dies there, and the covariance moves
  // into the reduction, so no second M x N or M x M copy is ever held.
  spec.tridiag = tridiagonalize(covariance(std::move(centered)));
  model.eigenvalues = eigen_values_from(spec.tridiag);
  for (double& v : model.eigenvalues)
    if (v < 0.0) v = 0.0;  // clamp tiny negative rounding residue
  return spec;
}

PcaModel attach_top_components(PcaSpectrum&& spec, std::size_t k) {
  PcaModel model = std::move(spec.model);
  // Keep the full values-only spectrum (already clamped): it drove the
  // TVE-based k choice, stays exact for the whole curve, and supplies
  // the solve's shifts, so the spectrum is computed once; the solve
  // contributes only the vectors.
  model.components =
      eigen_topk_from(spec.tridiag, model.eigenvalues, k).vectors;
  return model;
}

}  // namespace dpz
