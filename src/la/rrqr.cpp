#include "la/rrqr.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

#include "la/blas.hpp"
#include "la/qr.hpp"

namespace khss::la {

RRQRResult rrqr(const Matrix& a_in, const TruncationOptions& opts) {
  Matrix a = a_in;
  const int m = a.rows(), n = a.cols();
  const int kmax_shape = m < n ? m : n;
  int kmax = kmax_shape;
  if (opts.max_rank >= 0 && opts.max_rank < kmax) kmax = opts.max_rank;

  std::vector<int> jpvt(n);
  std::iota(jpvt.begin(), jpvt.end(), 0);
  // Squared column norms, downdated as the factorization proceeds; norms are
  // recomputed from scratch when cancellation makes the downdate unreliable.
  // The sums run over rows in ascending order, one whole row at a time.
  std::vector<double> colnorm2(n, 0.0);
  for (int i = 0; i < m; ++i) {
    const double* ai = a.row(i);
    for (int j = 0; j < n; ++j) colnorm2[j] += ai[j] * ai[j];
  }
  std::vector<double> colnorm2_ref = colnorm2;

  double first_pivot = 0.0;
  int k = 0;
  for (; k < kmax; ++k) {
    // Pivot: remaining column of largest norm.
    int piv = k;
    for (int j = k + 1; j < n; ++j) {
      if (colnorm2[j] > colnorm2[piv]) piv = j;
    }
    if (piv != k) {
      for (int i = 0; i < m; ++i) std::swap(a(i, k), a(i, piv));
      std::swap(colnorm2[k], colnorm2[piv]);
      std::swap(colnorm2_ref[k], colnorm2_ref[piv]);
      std::swap(jpvt[k], jpvt[piv]);
    }

    // Householder on column k, rows k..m-1.
    const double norm = detail::column_norm(a, k, k);

    if (k == 0) first_pivot = norm;
    const double threshold =
        std::max(opts.atol, opts.rtol * first_pivot);
    if (norm <= threshold) break;

    detail::reflect_trailing(a, k, detail::make_reflector(a, k, norm));

    // Downdate column norms; recompute when the running value has lost most
    // of its magnitude relative to the reference (LAPACK xGEQP3 heuristic).
    for (int c = k + 1; c < n; ++c) {
      const double akc = a(k, c);
      double updated = colnorm2[c] - akc * akc;
      if (updated < 0.0) updated = 0.0;
      if (updated <= 1e-12 * colnorm2_ref[c]) {
        double s = 0.0;
        for (int i = k + 1; i < m; ++i) s += a(i, c) * a(i, c);
        updated = s;
        colnorm2_ref[c] = s;
      }
      colnorm2[c] = updated;
    }
  }

  RRQRResult out;
  out.rank = k;
  out.jpvt = std::move(jpvt);

  // R in pivoted column order (k x n).
  out.r = Matrix(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < n; ++j) out.r(i, j) = a(i, j);
  }
  return out;
}

ColumnID interpolative_cols(const Matrix& m, const TruncationOptions& opts) {
  const int n = m.cols();
  RRQRResult f = rrqr(m, opts);
  const int k = f.rank;

  ColumnID out;
  out.cols.assign(f.jpvt.begin(), f.jpvt.begin() + k);

  // coeff solves R11 * coeff_pivoted = [R11 R12]; then unpivot the columns:
  // columns J get the identity, the rest get X = R11^{-1} R12.
  out.coeff = Matrix(k, n);
  if (k == 0) return out;

  Matrix r11 = f.r.block(0, 0, k, k);
  Matrix rhs = f.r;  // k x n, first k columns become I after the solve
  trsm_upper_left(r11, rhs);

  for (int j = 0; j < n; ++j) {
    const int orig = f.jpvt[j];
    for (int i = 0; i < k; ++i) out.coeff(i, orig) = rhs(i, j);
  }
  return out;
}

RowID interpolative_rows(const Matrix& m, const TruncationOptions& opts) {
  ColumnID cid = interpolative_cols(m.transposed(), opts);
  RowID out;
  out.rows = std::move(cid.cols);
  out.basis = cid.coeff.transposed();
  return out;
}

}  // namespace khss::la
