#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "simd/simd.h"
#include "util/error.h"

namespace dpz {

namespace {

// Copies sign of b onto |a| (Fortran SIGN intrinsic).
double sign_of(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

// Householder reduction of a symmetric matrix to tridiagonal form
// (EISPACK TRED2/TRED1 lineage, restructured so every inner loop runs
// over contiguous rows and maps onto the simd kernel table).
//
// On exit d is the tridiagonal diagonal, e the subdiagonal (e[0] = 0),
// h[i] the squared reflector norm of step i (h[i] == 0 marks a skipped
// step), and z's rows still hold the scaled Householder vectors — which
// is everything accumulate_q_transposed needs, so one reduction serves
// both the values-only and the full eigensolve.
void householder_reduce(Matrix& z, std::vector<double>& d,
                        std::vector<double>& e, std::vector<double>& h) {
  const std::size_t n = z.rows();
  const simd::KernelTable& ops = simd::kernels();
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double hi = 0.0;
    if (l > 0) {
      double* row_i = z.row(i).data();
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(row_i[k]);
      if (scale == 0.0) {
        e[i] = row_i[l];
      } else {
        ops.divide(scale, row_i, l + 1);
        hi = ops.dot(row_i, row_i, l + 1);
        double f = row_i[l];
        double g = f >= 0.0 ? -std::sqrt(hi) : std::sqrt(hi);
        e[i] = scale * g;
        hi -= f * g;
        row_i[l] = f - g;
        // e[j] <- (A v)_j in one fused pass over the lower triangle:
        // the dot covers A(j, 0..j), and the trailing axpy scatters row
        // j's A(j, k) terms into e[0..j) — each earlier slot still
        // receives its k > j contributions in ascending-k order, exactly
        // as the classic column walk did, but every z row is now read
        // once (dot + axpy back to back out of L1) instead of streamed
        // twice.
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] = ops.dot(z.row(j).data(), row_i, j + 1);
          if (j >= 1) ops.axpy(row_i[j], z.row(j).data(), e.data(), j);
        }
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= hi;
          f += e[j] * row_i[j];
        }
        const double hh = f / (hi + hi);
        // The classic loop updates e[j] immediately before row j's
        // rank-2 update and never reads e[j] from a later row, so the
        // whole e update hoists in front of the row sweep.
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * row_i[j];
        for (std::size_t j = 0; j <= l; ++j)
          ops.rank2_update(row_i[j], e.data(), e[j], row_i,
                           z.row(j).data(), j + 1);
      }
    } else {
      e[i] = z(i, l);
    }
    h[i] = hi;
  }
  h[0] = 0.0;
  e[0] = 0.0;
  // The rank-2 sweeps left the tridiagonal diagonal on z's diagonal.
  for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
}

// Accumulates the orthogonal transform Q of householder_reduce, stored
// TRANSPOSED: row j of the result is column j of Q. In that layout both
// the projection (a dot against row i of z) and the reflector update
// (an axpy along row j) run over contiguous memory, as do the QL
// rotations and the final column gather downstream. z is the reduced
// matrix (rows = scaled reflectors) and is not modified; v/h is derived
// from row i and h[i] on the fly, so the reduction itself never has to
// store it.
Matrix accumulate_q_transposed(const Matrix& z,
                               const std::vector<double>& h) {
  const std::size_t n = z.rows();
  const simd::KernelTable& ops = simd::kernels();
  Matrix qt(n, n);
  for (std::size_t i = 0; i < n; ++i) qt(i, i) = 1.0;
  std::vector<double> w2(n);
  for (std::size_t i = 1; i < n; ++i) {
    if (h[i] == 0.0) continue;
    const double* v = z.row(i).data();
    for (std::size_t k = 0; k < i; ++k) w2[k] = v[k] / h[i];
    for (std::size_t j = 0; j < i; ++j) {
      double* q_row = qt.row(j).data();
      const double g = ops.dot(v, q_row, i);
      ops.axpy(-g, w2.data(), q_row, i);
    }
  }
  return qt;
}

// Implicit-shift QL iteration on the tridiagonal (d, e). When `qt` is
// non-null the rotations are applied to its rows (transposed layout:
// one rot2 kernel call per rotation instead of a strided column walk),
// so qt ends up holding the eigenvectors of the original matrix as
// rows. With qt null only the eigenvalues are computed — the d/e
// recurrence does not depend on the rotations. Classic TQL2/TQL1.
void ql_iterate(std::vector<double>& d, std::vector<double>& e,
                Matrix* qt) {
  const std::size_t n = d.size();
  if (n == 1) return;
  const simd::KernelTable& ops = simd::kernels();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr int kMaxIterations = 64;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m = l;
    for (;;) {
      // Find the first negligible subdiagonal element at or after l.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd)
          break;
      }
      if (m == l) break;
      if (iter++ == kMaxIterations)
        throw NumericalError("QL iteration failed to converge");

      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      bool underflow = false;
      for (std::size_t ii = m; ii-- > l;) {
        const std::size_t i = ii;
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        if (qt != nullptr)
          ops.rot2(c, s, qt->row(i).data(), qt->row(i + 1).data(), n);
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

// Sorts eigenpairs descending by eigenvalue. `qt` holds eigenvectors as
// ROWS; the output keeps the public column convention, produced by a
// permuted row copy followed by one blocked transpose.
SymmetricEigen sort_descending_rows(std::vector<double> d, Matrix qt) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return d[a] > d[b]; });

  SymmetricEigen out;
  out.values.resize(n);
  Matrix perm(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    const auto src = qt.row(order[j]);
    std::copy(src.begin(), src.end(), perm.row(j).begin());
  }
  out.vectors = perm.transposed();
  return out;
}

}  // namespace

TridiagonalReduction tridiagonalize(const Matrix& a) {
  DPZ_REQUIRE(a.rows() == a.cols(),
              "tridiagonalize requires a square matrix");
  const std::size_t n = a.rows();
  TridiagonalReduction r;
  r.reflectors = a;  // working copy: reduced in place
  r.diag.assign(n, 0.0);
  r.subdiag.assign(n, 0.0);
  r.norm2.assign(n, 0.0);
  if (n >= 2) householder_reduce(r.reflectors, r.diag, r.subdiag, r.norm2);
  if (n == 1) r.diag[0] = a(0, 0);
  return r;
}

std::vector<double> eigen_values_from(const TridiagonalReduction& r) {
  std::vector<double> d = r.diag;
  std::vector<double> e = r.subdiag;
  ql_iterate(d, e, nullptr);
  std::sort(d.begin(), d.end(), std::greater<double>());
  return d;
}

SymmetricEigen eigen_sym_from(const TridiagonalReduction& r) {
  std::vector<double> d = r.diag;
  std::vector<double> e = r.subdiag;
  Matrix qt = accumulate_q_transposed(r.reflectors, r.norm2);
  ql_iterate(d, e, &qt);
  return sort_descending_rows(std::move(d), std::move(qt));
}

namespace {

// One solve of (T - lambda I) x = y in place (partial-pivot band LU,
// O(n)). T is the tridiagonal (diag, subdiag); zero pivots are nudged
// to `tiny` so a dead-on eigenvalue cannot divide by zero — inverse
// iteration WANTS the system nearly singular.
void solve_shifted_tridiagonal(const std::vector<double>& diag,
                               const std::vector<double>& subdiag,
                               double lambda, double tiny,
                               std::vector<double>& y,
                               std::vector<double>& dg,
                               std::vector<double>& up1,
                               std::vector<double>& up2) {
  const std::size_t n = diag.size();
  for (std::size_t i = 0; i < n; ++i) {
    dg[i] = diag[i] - lambda;
    up1[i] = i + 1 < n ? subdiag[i + 1] : 0.0;
    up2[i] = 0.0;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double bl = subdiag[i + 1];  // T(i+1, i)
    if (std::abs(dg[i]) >= std::abs(bl)) {
      if (dg[i] == 0.0) dg[i] = tiny;
      const double mult = bl / dg[i];
      dg[i + 1] -= mult * up1[i];
      y[i + 1] -= mult * y[i];
    } else {
      // Swap rows i and i+1, then eliminate. The swapped-in row brings
      // its superdiagonal along, creating the up2 fill-in.
      const double mult = dg[i] / bl;
      const double next_d = dg[i + 1];
      const double next_u = up1[i + 1];
      dg[i] = bl;
      dg[i + 1] = up1[i] - mult * next_d;
      up1[i] = next_d;
      up1[i + 1] = -mult * next_u;
      up2[i] = next_u;
      std::swap(y[i], y[i + 1]);
      y[i + 1] -= mult * y[i];
    }
  }
  if (dg[n - 1] == 0.0) dg[n - 1] = tiny;
  y[n - 1] /= dg[n - 1];
  if (n >= 2) {
    if (dg[n - 2] == 0.0) dg[n - 2] = tiny;
    y[n - 2] = (y[n - 2] - up1[n - 2] * y[n - 1]) / dg[n - 2];
    if (n >= 3) {
      for (std::size_t r = n - 2; r-- > 0;) {
        if (dg[r] == 0.0) dg[r] = tiny;
        y[r] = (y[r] - up1[r] * y[r + 1] - up2[r] * y[r + 2]) / dg[r];
      }
    }
  }
}

// Deterministic start vector for eigenvector slot j (splitmix-style
// bit mix — no global state, identical on every platform and run).
void fill_start_vector(std::size_t j, unsigned attempt,
                       std::vector<double>& y) {
  std::uint64_t s =
      0x9E3779B97F4A7C15ULL * (j + 1) + 0xBF58476D1CE4E5B9ULL * attempt;
  for (double& v : y) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v = 0.5 + static_cast<double>(s >> 40) /
                  static_cast<double>(std::uint64_t{1} << 25);
  }
}

}  // namespace

SymmetricEigen eigen_topk_from(const TridiagonalReduction& r,
                               std::size_t k) {
  const std::size_t m = r.diag.size();
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  if (m <= 64 || 2 * k >= m) {
    SymmetricEigen full = eigen_sym_from(r);
    full.values.resize(k);
    SymmetricEigen out{std::move(full.values), Matrix(m, k)};
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j)
        out.vectors(i, j) = full.vectors(i, j);
    return out;
  }
  const simd::KernelTable& ops = simd::kernels();

  std::vector<double> values = eigen_values_from(r);
  values.resize(k);

  double anorm = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    anorm = std::max(anorm,
                     std::abs(r.diag[i]) + std::abs(r.subdiag[i]) +
                         (i + 1 < m ? std::abs(r.subdiag[i + 1]) : 0.0));
  const double tiny =
      std::max(anorm, 1.0) * std::numeric_limits<double>::epsilon();

  // Tridiagonal-basis eigenvectors as rows. Each slot runs a fixed
  // number of inverse-iteration solves, re-orthogonalized against the
  // finished rows every pass so clustered eigenvalues fan out across
  // their shared eigenspace instead of collapsing onto one direction.
  Matrix yt(k, m);
  std::vector<double> y(m), dg(m), up1(m), up2(m);
  for (std::size_t j = 0; j < k; ++j) {
    constexpr unsigned kMaxRestarts = 4;
    for (unsigned attempt = 0; attempt < kMaxRestarts; ++attempt) {
      fill_start_vector(j, attempt, y);
      bool ok = true;
      for (int iter = 0; iter < 3 && ok; ++iter) {
        for (std::size_t p = 0; p < j; ++p) {
          const double* row_p = yt.row(p).data();
          ops.axpy(-ops.dot(row_p, y.data(), m), row_p, y.data(), m);
        }
        solve_shifted_tridiagonal(r.diag, r.subdiag, values[j], tiny, y,
                                  dg, up1, up2);
        const double norm2 = ops.dot(y.data(), y.data(), m);
        if (!(norm2 > 0.0) || !std::isfinite(norm2)) {
          ok = false;
          break;
        }
        ops.scale(1.0 / std::sqrt(norm2), y.data(), m);
      }
      if (!ok) continue;
      for (std::size_t p = 0; p < j; ++p) {
        const double* row_p = yt.row(p).data();
        ops.axpy(-ops.dot(row_p, y.data(), m), row_p, y.data(), m);
      }
      const double norm2 = ops.dot(y.data(), y.data(), m);
      if (!(norm2 > 1e-12) || !std::isfinite(norm2)) continue;
      ops.scale(1.0 / std::sqrt(norm2), y.data(), m);
      break;
    }
    double* row_j = yt.row(j).data();
    for (std::size_t i = 0; i < m; ++i) row_j[i] = y[i];
  }

  // Back-transform through the Householder reflectors (x = Q y with
  // Q = P_{m-1} ... P_1, exactly the product accumulate_q_transposed
  // forms): i ascending, each reflector applied to every vector while
  // its v/h row is hot.
  std::vector<double> w2(m);
  for (std::size_t i = 1; i < m; ++i) {
    if (r.norm2[i] == 0.0) continue;
    const double* v = r.reflectors.row(i).data();
    for (std::size_t t = 0; t < i; ++t) w2[t] = v[t] / r.norm2[i];
    for (std::size_t j = 0; j < k; ++j) {
      double* row_j = yt.row(j).data();
      const double g = ops.dot(v, row_j, i);
      ops.axpy(-g, w2.data(), row_j, i);
    }
  }

  SymmetricEigen out;
  out.values = std::move(values);
  out.vectors = Matrix(m, k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < m; ++i) out.vectors(i, j) = yt(j, i);
  return out;
}

SymmetricEigen eigen_sym(const Matrix& a) {
  return eigen_sym_from(tridiagonalize(a));
}

SymmetricEigen eigen_sym_topk(const Matrix& a, std::size_t k) {
  return eigen_topk_from(tridiagonalize(a), k);
}

}  // namespace dpz
