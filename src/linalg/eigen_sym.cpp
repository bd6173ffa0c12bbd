#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "simd/simd.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

// Copies sign of b onto |a| (Fortran SIGN intrinsic).
double sign_of(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

// Step i of the Householder reduction, on row[0..l] (l = i - 1) of the
// reduced matrix, in place: scales the row, turns it into the reflector
// v, stores the subdiagonal in `e_i`, and returns the squared reflector
// norm (0 marks a skipped step, whose row is left unscaled). Both the
// serial and the team reduction call this, so their bits agree.
double reflector_prelude(double* row, std::size_t l, double& e_i,
                         const simd::KernelTable& ops) {
  if (l == 0) {
    e_i = row[0];
    return 0.0;
  }
  double scale = 0.0;
  for (std::size_t k = 0; k <= l; ++k) scale += std::abs(row[k]);
  if (scale == 0.0) {
    e_i = row[l];
    return 0.0;
  }
  ops.divide(scale, row, l + 1);
  double hi = ops.dot(row, row, l + 1);
  const double f = row[l];
  const double g = f >= 0.0 ? -std::sqrt(hi) : std::sqrt(hi);
  e_i = scale * g;
  hi -= f * g;
  row[l] = f - g;
  return hi;
}

// Turns p = A v (length l + 1) into the rank-2 update's second vector
// q = p/hi - hh v, in place. The classic loop updates e[j] immediately
// before row j's rank-2 update and never reads e[j] from a later row, so
// the whole update hoists in front of the row sweep.
void form_update_vector(double* p, const double* v, std::size_t l,
                        double hi) {
  double f = 0.0;
  for (std::size_t j = 0; j <= l; ++j) {
    p[j] /= hi;
    f += p[j] * v[j];
  }
  const double hh = f / (hi + hi);
  for (std::size_t j = 0; j <= l; ++j) p[j] -= hh * v[j];
}

// Householder reduction of a symmetric matrix to tridiagonal form
// (EISPACK TRED2/TRED1 lineage, restructured so every inner loop runs
// over contiguous rows and maps onto the simd kernel table), steps
// i = top .. 1 over the lower triangle of z. This is the single-pass
// code and the oracle the team reduction reproduces.
//
// On exit e[1..top] holds the subdiagonal, h[i] the squared reflector
// norm of step i (h[i] == 0 marks a skipped step), and z's rows the
// scaled Householder vectors — which is everything
// accumulate_q_transposed needs, so one reduction serves both the
// values-only and the full eigensolve.
void householder_serial(Matrix& z, std::vector<double>& e,
                        std::vector<double>& h, std::size_t top) {
  const simd::KernelTable& ops = simd::kernels();
  for (std::size_t i = top; i >= 1; --i) {
    const std::size_t l = i - 1;
    double* row_i = z.row(i).data();
    const double hi = reflector_prelude(row_i, l, e[i], ops);
    if (hi != 0.0) {
      // e[j] <- (A v)_j in one fused pass over the lower triangle: the
      // dot covers A(j, 0..j), and the trailing axpy scatters row j's
      // A(j, k) terms into e[0..j) — each earlier slot still receives
      // its k > j contributions in ascending-k order, exactly as the
      // classic column walk did, but every z row is now read once (dot
      // + axpy back to back out of L1) instead of streamed twice.
      for (std::size_t j = 0; j <= l; ++j) {
        e[j] = ops.dot(z.row(j).data(), row_i, j + 1);
        if (j >= 1) ops.axpy(row_i[j], z.row(j).data(), e.data(), j);
      }
      form_update_vector(e.data(), row_i, l, hi);
      for (std::size_t j = 0; j <= l; ++j)
        ops.rank2_update(row_i[j], e.data(), e[j], row_i,
                         z.row(j).data(), j + 1);
    }
    h[i] = hi;
  }
}

// The team reduction engages at this many active rows and hands the
// rest to householder_serial below it: under it a step is too short to
// amortize a barrier, and the full-row form below costs twice the
// serial flops, so one participant must never run it.
constexpr std::size_t kTeamMinRows = 256;

// Rows per group in the team's row sweeps: dot_ordered_rows interleaves
// four chains, and four full rows at M = 720 (23 KiB) stay in L1 from
// the rank-2 update to the next step's A v.
constexpr std::size_t kRowGroup = 4;

// Rows [0, rows) split into contiguous bands, one per participant.
// Recomputed each step from the shrinking active size, so a band moves
// by at most a row or two per step and stays in its owner's cache.
struct Band {
  std::size_t begin;
  std::size_t end;
};
Band row_band(std::size_t rows, unsigned rank, unsigned size) {
  return {rows * rank / size, rows * (rank + 1) / size};
}

// (A v)_t for rows [b.begin, b.end) of a full symmetric z: the 16-lane
// dot over A(t, 0..t) plus the strictly-upper entries A(t, t+1..l)
// chained in ascending column order — the same additions in the same
// order as householder_serial's axpy scatter, since A(t, j) mirrors
// A(j, t) bit for bit and products commute.
void form_av_rows(const Matrix& z, const double* v, std::size_t l, Band b,
                  double* av, const simd::KernelTable& ops) {
  for (std::size_t t0 = b.begin; t0 < b.end; t0 += kRowGroup) {
    const std::size_t rows = std::min(kRowGroup, b.end - t0);
    for (std::size_t t = t0; t < t0 + rows; ++t)
      av[t] = ops.dot(z.row(t).data(), v, t + 1);
    ops.dot_ordered_rows(z.row(t0).data(), z.cols(), rows, v, t0 + 1,
                         l + 1, av + t0);
  }
}

// Steps i = n-1 .. kTeamMinRows-1 of householder_serial on a team, with
// one barrier per step. z is kept full (both triangles, mirrored once up
// front), so apart from row l, which every participant reads and none
// writes during step i, a participant touches only its own band of
// rows: it applies the rank-2 update to its full rows and at once forms
// the next step's (A v) entries for them. Every participant privately
// recomputes the O(M) remainder — the update vector, the update of row
// l and the next step's reflector.
// Mirrored entries receive the same two products added in the other
// order, so both triangles stay bit-identical to the serial lower one.
// Participant 0 publishes the finished reflector rows, e and h, and
// finally row kTeamMinRows-2, where householder_serial takes over.
// Entries above z's diagonal are left as scratch.
void householder_team(Matrix& z, std::vector<double>& e,
                      std::vector<double>& h, const ThreadPool& pool) {
  const std::size_t n = z.rows();
  constexpr std::size_t kLast = kTeamMinRows - 1;
  // (A v) of the step in flight, double-buffered: step i reads one half
  // while the participants already fill the other for step i-1.
  std::vector<double> av[2] = {std::vector<double>(n),
                               std::vector<double>(n)};
  pool.run_team([&](TeamMember& team) {
    const simd::KernelTable& ops = simd::kernels();
    const unsigned rank = team.rank();
    const unsigned size = team.size();
    // v: step i's row i (reflector + diagonal); u: row l, updated.
    std::vector<double> v(n), u(n), q(n);

    Band band = row_band(n - 1, rank, size);
    for (std::size_t t = band.begin; t < band.end; ++t)
      for (std::size_t j = t + 1; j < n; ++j) z(t, j) = z(j, t);
    std::copy_n(z.row(n - 1).begin(), n, v.begin());
    double e_i = 0.0;
    double hi = reflector_prelude(v.data(), n - 2, e_i, ops);
    int cur = 0;
    if (hi != 0.0)
      form_av_rows(z, v.data(), n - 2, band, av[cur].data(), ops);

    for (std::size_t i = n - 1;; --i) {
      const std::size_t l = i - 1;
      team.barrier();
      if (rank == 0) {
        std::copy_n(v.begin(), i + 1, z.row(i).begin());
        e[i] = e_i;
        h[i] = hi;
      }
      std::copy_n(z.row(l).begin(), l + 1, u.begin());
      if (hi != 0.0) {
        std::copy_n(av[cur].begin(), l + 1, q.begin());
        form_update_vector(q.data(), v.data(), l, hi);
        ops.rank2_update(v[l], q.data(), q[l], v.data(), u.data(), l + 1);
      }
      const bool last = i == kLast;
      const double next_hi =
          last ? 0.0 : reflector_prelude(u.data(), l - 1, e_i, ops);
      band = row_band(l, rank, size);
      for (std::size_t t0 = band.begin; t0 < band.end; t0 += kRowGroup) {
        const Band group{t0, std::min(band.end, t0 + kRowGroup)};
        if (hi != 0.0)
          for (std::size_t j = group.begin; j < group.end; ++j)
            ops.rank2_update(v[j], q.data(), q[j], v.data(),
                             z.row(j).data(), l);
        if (next_hi != 0.0)
          form_av_rows(z, u.data(), l - 1, group, av[cur ^ 1].data(), ops);
      }
      if (last) break;
      cur ^= 1;
      hi = next_hi;
      std::swap(v, u);
    }
    team.barrier();
    if (rank == 0)
      std::copy_n(u.begin(), kLast, z.row(kLast - 1).begin());
  });
}

// Householder reduction to tridiagonal form: d the diagonal, e the
// subdiagonal (e[0] = 0), h and z's rows as householder_serial leaves
// them. Large reductions run on a team while at least kTeamMinRows rows
// remain; the result is bit-identical at every width.
void householder_reduce(Matrix& z, std::vector<double>& d,
                        std::vector<double>& e, std::vector<double>& h) {
  const std::size_t n = z.rows();
  std::size_t top = n - 1;
  const ThreadPool& pool = PoolScope::current();
  if (n >= kTeamMinRows && pool.team_width() >= 2) {
    householder_team(z, e, h, pool);
    top = kTeamMinRows - 2;
  }
  householder_serial(z, e, h, top);
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
      // Find the first negligible subdiagonal element at or after l. A
      // subnormal e[m] is negligible against any diagonal, but where
      // d[m] and d[m+1] are 0 or subnormal too (the null block of a
      // rank-deficient covariance) eps * dd underflows below it, so the
      // relative test alone would never split there.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        const double em = std::abs(e[m]);
        if (em <= std::numeric_limits<double>::epsilon() * dd ||
            em < std::numeric_limits<double>::min())
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

TridiagonalReduction tridiagonalize(Matrix a) {
  DPZ_REQUIRE(a.rows() == a.cols(),
              "tridiagonalize requires a square matrix");
  const std::size_t n = a.rows();
  TridiagonalReduction r;
  r.reflectors = std::move(a);  // reduced in place
  r.diag.assign(n, 0.0);
  r.subdiag.assign(n, 0.0);
  r.norm2.assign(n, 0.0);
  if (n >= 2) householder_reduce(r.reflectors, r.diag, r.subdiag, r.norm2);
  if (n == 1) r.diag[0] = r.reflectors(0, 0);
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
                               std::span<const double> values,
                               std::size_t k) {
  const std::size_t m = r.diag.size();
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  DPZ_REQUIRE(values.size() == m,
              "eigen_topk_from needs the reduction's full spectrum");
  if (topk_is_dense(m, k)) {
    SymmetricEigen full = eigen_sym_from(r);
    full.values.resize(k);
    SymmetricEigen out{std::move(full.values), Matrix(m, k)};
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j)
        out.vectors(i, j) = full.vectors(i, j);
    return out;
  }
  const simd::KernelTable& ops = simd::kernels();

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
  // forms): i ascending, each reflector applied to a band's vectors
  // while its v/h row is hot. The vectors split into the pool's
  // contiguous chunks; each vector still receives reflectors 1..m-1 in
  // order, so the bits do not depend on the chunk count.
  parallel_chunks(0, k, [&](std::size_t j0, std::size_t j1) {
    std::vector<double> w2(m);
    for (std::size_t i = 1; i < m; ++i) {
      if (r.norm2[i] == 0.0) continue;
      const double* v = r.reflectors.row(i).data();
      for (std::size_t t = 0; t < i; ++t) w2[t] = v[t] / r.norm2[i];
      for (std::size_t j = j0; j < j1; ++j) {
        double* row_j = yt.row(j).data();
        const double g = ops.dot(v, row_j, i);
        ops.axpy(-g, w2.data(), row_j, i);
      }
    }
  });

  SymmetricEigen out;
  const std::span<const double> top = values.first(k);
  out.values.assign(top.begin(), top.end());
  out.vectors = Matrix(m, k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < m; ++i) out.vectors(i, j) = yt(j, i);
  return out;
}

SymmetricEigen eigen_sym(Matrix a) {
  return eigen_sym_from(tridiagonalize(std::move(a)));
}

SymmetricEigen eigen_sym_topk(Matrix a, std::size_t k) {
  const TridiagonalReduction r = tridiagonalize(std::move(a));
  return eigen_topk_from(r, eigen_values_from(r), k);
}

}  // namespace dpz
