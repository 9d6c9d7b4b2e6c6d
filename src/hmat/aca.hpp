#pragma once
// Adaptive Cross Approximation (partial pivoting) for low-rank compression of
// admissible H-matrix blocks from row and column access only — the
// "hybrid-ACA" ingredient of the paper's prototype H code (Section 3.2).
// Partially pivoted ACA (Bebendorf, Numer. Math. 2000) reads whole rows and
// columns of the block, never single entries.

#include <functional>

#include "kernel/kernel.hpp"
#include "la/matrix.hpp"

namespace khss::hmat {

/// Rank-k factorization  block ~= U * V^T  (U: m x k, V: n x k).
struct LowRank {
  la::Matrix u;
  la::Matrix v;

  int rank() const { return u.cols(); }
  std::size_t bytes() const { return u.bytes() + v.bytes(); }
  la::Matrix dense() const;
};

/// Whole-row and whole-column reads of an m x n block, in block-local
/// indices: row(i, out) fills out[0, n) with A(i, :) and col(j, out) fills
/// out[0, m) with A(:, j).
struct PanelFn {
  std::function<void(int, double*)> row;
  std::function<void(int, double*)> col;
};

/// Panels of the kernel block K(row_lo:row_hi, col_lo:col_hi) (+lambda
/// where the ranges share an index) through KernelMatrix::row_panel, with
/// the same bits as entry().  A column is read as a row panel, since K is
/// symmetric bit for bit.
PanelFn kernel_panels(const kernel::KernelMatrix& k, int row_lo, int row_hi,
                      int col_lo, int col_hi);

struct ACAOptions {
  double rtol = 1e-2;   // relative Frobenius stopping tolerance
  int max_rank = 0;     // 0 => min(m, n) / 2 cap
  int min_pivot_tries = 3;  // consecutive tiny pivots before declaring done
};

/// Partial-pivoted ACA.  Returns true on convergence within the rank cap;
/// on failure the partial factors are still valid but inaccurate, and the
/// caller should fall back to dense storage.
bool aca(int m, int n, const PanelFn& panels, const ACAOptions& opts,
         LowRank* out);

/// SVD recompression of a LowRank factorization: QR both factors, SVD the
/// small core, truncate at rtol (relative to the largest singular value).
void recompress(LowRank* lr, double rtol);

/// Cheap a-posteriori check of an ACA factorization: reconstructs a
/// deterministic stride sample of up to `max_probes` rows and compares
/// against the true entries.  Returns false when the sampled relative
/// Frobenius error exceeds rtol — ACA's internal convergence estimate can
/// pass while the factorization misses whole regions of a block (or blows
/// up) on kernels with a wide dynamic range.
bool validate_lowrank(int m, int n, const PanelFn& panels, const LowRank& lr,
                      double rtol, int max_probes = 32);

/// Exact fallback: materialize the block row by row, SVD it, truncate at
/// rtol (relative to the largest singular value).  O(m*n) element
/// evaluations + an SVD — the price of correctness when
/// aca()/validate_lowrank() report failure.
LowRank dense_svd_lowrank(int m, int n, const PanelFn& panels, double rtol);

}  // namespace khss::hmat
