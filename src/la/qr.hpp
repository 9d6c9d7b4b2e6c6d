#pragma once
// Householder orthogonal factorizations: QR, and the QL / LQ variants the
// ULV factorization needs (QL introduces zeros at the *top* of the U basis,
// LQ triangularizes eliminated rows from the left).
//
// Every reflector is applied to a row-major block one whole row at a time,
// with the same per-element operations in the same order as the classic
// column-by-column loop, so the factors are those loops' bits.  Q is formed
// only on request (q_thin / q_full), and only for the columns a reflector
// can change.

#include <vector>

#include "la/matrix.hpp"

namespace khss::la {

/// Compact Householder QR of an m x n matrix (no pivoting).
/// A = Q R with Q m x m orthogonal and R m x n upper-trapezoidal.
class QRFactor {
 public:
  /// Factor A (copied).
  explicit QRFactor(Matrix a);

  int rows() const { return a_.rows(); }
  int cols() const { return a_.cols(); }

  /// R as an explicit min(m,n) x n upper-triangular matrix.
  Matrix r() const;

  /// Thin Q: m x min(m,n) with orthonormal columns.
  Matrix q_thin() const;

  /// Full Q: m x m orthogonal.
  Matrix q_full() const;

 private:
  /// First `ncols` columns of Q = H_0 H_1 ... H_{k-1}.
  Matrix form_q(int ncols) const;

  Matrix a_;                 // Householder vectors below diagonal; R on/above.
  std::vector<double> tau_;  // reflector coefficients
};

/// QL-style factorization used by ULV elimination:
/// returns orthogonal Omega (m x m) and lower-triangular L (r x r) such that
///   Omega * U = [0; L]   (zeros in the first m - r rows).
/// Requires m >= r.  Implemented by reversing rows/columns and running QR.
struct QLResult {
  Matrix omega;  // m x m orthogonal
  Matrix l;      // r x r lower triangular
};
QLResult ql_zero_top(const Matrix& u);

/// LQ factorization of a wide matrix A (me x m, me <= m):
///   A = [L 0] * Q   with L (me x me) lower triangular, Q (m x m) orthogonal.
struct LQResult {
  Matrix l;  // me x me lower triangular
  Matrix q;  // m x m orthogonal
};
LQResult lq(const Matrix& a);

/// Orthonormality defect || Q^T Q - I ||_F, for tests.
double orthogonality_error(const Matrix& q);

namespace detail {

/// 2-norm of a(i0:m, j), squares summed in ascending row order.
double column_norm(const Matrix& a, int j, int i0);

/// Turns column j of `a` (rows j..m-1, 2-norm `norm` > 0) into the
/// reflector H = I - tau v v^T, v(0) = 1, that maps it to (beta, 0, ...):
/// stores beta in a(j, j) and v(1:) below it, and returns tau.
double make_reflector(Matrix& a, int j, double norm);

/// Applies reflector j of `a` (tau, and v below a(j, j)) to columns
/// j+1..n-1 of rows j..m-1 of `a` itself, one column panel at a time, on
/// the calling thread.
void reflect_trailing(Matrix& a, int j, double tau);

}  // namespace detail

}  // namespace khss::la
