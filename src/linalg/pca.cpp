#include "linalg/pca.h"

#include <algorithm>
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

Matrix pca_project(const Matrix& components, std::span<const double> mean,
                   std::span<const double> scale, const Matrix& x,
                   std::size_t k) {
  const std::size_t m = mean.size();
  DPZ_REQUIRE(x.rows() == m, "PCA transform feature-count mismatch");
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  const std::size_t n = x.cols();
  const simd::KernelTable& ops = simd::kernels();

  // Row tiles keep a slab of x cache-resident while every component
  // accumulates from it; untiled, each of the k components re-streams
  // the whole M x N matrix from memory. Each component still sums its
  // rows in ascending-i order, so the scores are bit-identical to the
  // untiled loop and independent of the thread count.
  Matrix scores(k, n);
  constexpr std::size_t kTileRows = 64;
  for (std::size_t i0 = 0; i0 < m; i0 += kTileRows) {
    const std::size_t i1 = std::min(m, i0 + kTileRows);
    parallel_for(0, k, [&](std::size_t j) {
      double* out = scores.row(j).data();
      for (std::size_t i = i0; i < i1; ++i) {
        const double d = components(i, j) / scale[i];
        if (d == 0.0) continue;
        ops.accum_centered(d, x.row(i).data(), mean[i], out, n);
      }
    });
  }
  return scores;
}

Matrix pca_back_project(const Matrix& components,
                        std::span<const double> mean,
                        std::span<const double> scale, const Matrix& scores) {
  const std::size_t m = mean.size();
  const std::size_t k = scores.rows();
  DPZ_REQUIRE(k >= 1 && k <= m, "score rank must be in [1, M]");
  const std::size_t n = scores.cols();
  const simd::KernelTable& ops = simd::kernels();

  Matrix x(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    double* out = x.row(i).data();
    for (std::size_t j = 0; j < k; ++j) {
      const double d = components(i, j);
      if (d == 0.0) continue;
      ops.axpy(d, scores.row(j).data(), out, n);
    }
    ops.scale_shift(scale[i], mean[i], out, n);
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
