// Symmetric eigendecomposition (the numerical heart of Stage 2).
//
// DPZ acquires its PCA projection by eigenanalysis of the M x M covariance
// matrix of block-DCT coefficients (Eq. 3-5 in the paper). Every solve
// starts from one Householder reduction to tridiagonal form, followed by
// one of two solvers on the tridiagonal:
//  * eigen_sym / eigen_sym_from — the implicit-shift QL iteration with
//                       the orthogonal transform accumulated: the full
//                       spectrum, O(n^3) with a small constant;
//  * eigen_sym_topk / eigen_topk_from — inverse iteration for only the
//                       k leading eigenpairs, O(n^2 k) once the reduction
//                       is paid for (the paper's SS IV-D sampling route
//                       and the default route both end here once k is
//                       known).
// Both return eigenvalues sorted descending (PCA convention: the first
// component explains the most variance) with matching eigenvector columns.
//
// Threading: from M = 256 up, when the active pool has at least two
// participants (ThreadPool::team_width) and the call is not nested, the
// reduction's large steps run on a ThreadPool team. Each participant
// owns a contiguous band of full rows (both triangles), applies the
// rank-2 update to them and forms the next step's A v entries for them
// as a 16-lane dot over A(t, 0..t) followed by the strictly-upper
// entries chained in ascending column order (simd dot_ordered_rows).
// That reproduces the single-participant code bit for bit: a mirrored
// entry receives the same two products added in the other order
// (a + b == b + a), and the ascending chain performs exactly the
// additions of the serial axpy scatter, in the same order. The
// single-participant path — today's lower-triangle code, which also
// finishes every reduction once fewer than 256 rows remain — is the
// oracle; the team form costs twice its flops, so one participant never
// runs it. The top-k back-transform splits its vectors into the pool's
// chunks, each receiving the reflectors in order. Results are therefore
// identical at every thread count.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace dpz {

struct SymmetricEigen {
  /// Eigenvalues sorted descending.
  std::vector<double> values;
  /// Orthonormal eigenvectors; column j corresponds to values[j].
  Matrix vectors;
};

/// The Householder reduction of a symmetric matrix to tridiagonal form.
/// This is the O(n^3) half of both eigensolves; keeping it around lets a
/// caller pay for it once, read the eigenvalues (cheap QL recurrence on
/// diag/subdiag), and only later decide whether the eigenvectors are
/// worth accumulating — exactly the shape of Stage 2's k-selection.
struct TridiagonalReduction {
  /// Row i holds the scaled Householder vector of step i in columns
  /// [0, i) and the reduced diagonal at column i; entries above the
  /// diagonal are scratch.
  Matrix reflectors;
  std::vector<double> diag;     ///< tridiagonal diagonal
  std::vector<double> subdiag;  ///< subdiagonal; subdiag[0] == 0
  std::vector<double> norm2;    ///< squared reflector norms (0 = skipped)
};

/// Householder reduction of `a` (symmetric; only the lower triangle is
/// read) to tridiagonal form. Takes `a` by value and reduces it in
/// place: move the matrix in when the caller no longer needs it.
TridiagonalReduction tridiagonalize(Matrix a);

/// Eigenvalues of a reduced matrix, sorted descending (values-only QL
/// recurrence — no orthogonal-transform accumulation).
std::vector<double> eigen_values_from(const TridiagonalReduction& r);

/// Full eigenpairs of a reduced matrix: accumulates the Householder
/// transform, runs QL with rotations, sorts descending. Together with
/// tridiagonalize this IS eigen_sym, split so the reduction can be
/// shared with a preceding eigen_values_from call.
SymmetricEigen eigen_sym_from(const TridiagonalReduction& r);

/// Whether eigen_topk_from takes the dense branch. Within one branch,
/// vector j depends only on vectors p < j, so a solve serves smaller k.
inline bool topk_is_dense(std::size_t m, std::size_t k) {
  return m <= 64 || 2 * k >= m;
}

/// The k leading eigenpairs of a reduced matrix (values sorted
/// descending; vectors is M x k). `values` is the reduction's full
/// descending spectrum (eigen_values_from, possibly clamped at 0 as
/// fit_pca_spectrum stores it), computed once by the caller; its first
/// k entries are the inverse iteration's shifts. Small or near-full-rank
/// problems (M <= 64 or 2k >= M) take the dense QL accumulation of
/// eigen_sym_from and keep its first k pairs: at these sizes it costs
/// about the same as k rounds of inverse iteration. Larger skinny
/// problems take vectors by inverse iteration on the tridiagonal (each
/// a handful of O(M) band solves) followed by one Householder
/// back-transform per vector: O(M^2 k) once the reduction is paid for,
/// versus O(M^3) for the dense accumulation. Deterministic — fixed start
/// vectors, fixed iteration counts. Vectors are re-orthonormalized, so
/// clustered eigenvalues yield an orthonormal basis of the cluster's
/// eigenspace rather than k copies of one direction.
SymmetricEigen eigen_topk_from(const TridiagonalReduction& r,
                               std::span<const double> values,
                               std::size_t k);

/// Householder + implicit-shift QL. `a` must be symmetric (only the lower
/// triangle is read). Throws NumericalError if the QL sweep fails to
/// converge (pathological only; the iteration cap is generous).
SymmetricEigen eigen_sym(Matrix a);

/// The k leading eigenpairs of `a` (symmetric; only the lower triangle
/// is read): eigen_topk_from on tridiagonalize(a) and its
/// eigen_values_from spectrum.
SymmetricEigen eigen_sym_topk(Matrix a, std::size_t k);

}  // namespace dpz
