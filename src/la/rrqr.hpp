#pragma once
// Column-pivoted (rank-revealing) Householder QR and the interpolative
// decomposition (ID) built on top of it.
//
// The ID is the workhorse of the HSS construction (Section 3.1 of the paper
// / Martinsson 2011): a row ID  M ~= U * M(J, :)  expresses a tall block in
// terms of a subset of its own rows, which is what makes the HSS generators
// "partially matrix-free" — every B generator is then a plain submatrix of
// the kernel matrix, obtainable by element evaluation.

#include <vector>

#include "la/matrix.hpp"

namespace khss::la {

/// Result of a truncated column-pivoted QR of an m x n matrix:
///   A P = Q R, truncated at numerical rank k.  Q is not formed: the ID
/// needs only R.
struct RRQRResult {
  int rank = 0;
  std::vector<int> jpvt;  // column permutation; first `rank` are the pivots
  Matrix r;               // rank x n, rows of R in pivoted order
};

/// Truncation rule: stop when |R(k,k)| <= max(atol, rtol * |R(0,0)|) or when
/// k == max_rank (max_rank < 0 means unbounded).
struct TruncationOptions {
  double rtol = 1e-8;
  double atol = 1e-300;
  int max_rank = -1;
};

RRQRResult rrqr(const Matrix& a, const TruncationOptions& opts);

/// Column ID:  M ~= M(:, J) * coeff  with coeff (k x n), coeff(:, J) = I.
struct ColumnID {
  std::vector<int> cols;  // J, size k
  Matrix coeff;           // k x n interpolation coefficients
};
ColumnID interpolative_cols(const Matrix& m, const TruncationOptions& opts);

/// Row ID:  M ~= basis * M(J, :)  with basis (m x k), basis(J, :) = I.
struct RowID {
  std::vector<int> rows;  // J, size k
  Matrix basis;           // m x k interpolation basis
};
RowID interpolative_rows(const Matrix& m, const TruncationOptions& opts);

}  // namespace khss::la
