#include "la/svd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace khss::la {

namespace {

// One Jacobi rotation on column pair (p, q) of the column-major work arrays.
// Returns true if a rotation was applied (pair was not yet orthogonal).
bool rotate_pair(std::vector<double>* cols, std::vector<double>* vcols, int m,
                 int p, int q, double tol) {
  double* ap = cols[p].data();
  double* aq = cols[q].data();
  double app = 0.0, aqq = 0.0, apq = 0.0;
  for (int i = 0; i < m; ++i) {
    app += ap[i] * ap[i];
    aqq += aq[i] * aq[i];
    apq += ap[i] * aq[i];
  }
  if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0) return false;

  const double tau = (aqq - app) / (2.0 * apq);
  const double t = (tau >= 0 ? 1.0 : -1.0) /
                   (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = c * t;

  for (int i = 0; i < m; ++i) {
    const double vp = ap[i], vq = aq[i];
    ap[i] = c * vp - s * vq;
    aq[i] = s * vp + c * vq;
  }
  if (vcols) {
    double* wp = vcols[p].data();
    double* wq = vcols[q].data();
    const int n = static_cast<int>(vcols[p].size());
    for (int i = 0; i < n; ++i) {
      const double vp = wp[i], vq = wq[i];
      wp[i] = c * vp - s * vq;
      wq[i] = s * vp + c * vq;
    }
  }
  return true;
}

}  // namespace

SVDResult svd(const Matrix& a_in, const SVDOptions& opts) {
  // Work on the thinner orientation: one-sided Jacobi orthogonalizes columns,
  // so fewer columns means fewer pair rotations.
  const bool transposed = a_in.rows() < a_in.cols();
  const Matrix a = transposed ? a_in.transposed() : a_in;
  const int m = a.rows(), n = a.cols();

  // Column-major working copy: each column is contiguous for the rotations.
  std::vector<std::vector<double>> cols(n, std::vector<double>(m));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) cols[j][i] = a(i, j);
  }
  std::vector<std::vector<double>> vcols;
  if (opts.compute_uv) {
    vcols.assign(n, std::vector<double>(n, 0.0));
    for (int j = 0; j < n; ++j) vcols[j][j] = 1.0;
  }

  // Round-robin tournament schedule: n (padded even) players, n-1 rounds of
  // n/2 disjoint pairs; pairs within a round touch distinct columns, so the
  // inner loop parallelizes without synchronization.
  const int players = (n % 2 == 0) ? n : n + 1;
  std::vector<int> ring(players);
  std::iota(ring.begin(), ring.end(), 0);
  // A round forks a team only when its pairs hold enough work: small SVDs
  // (ACA's recompression, a few dozen columns) run thousands of rounds, and
  // each fork waits on every team member.  Each pair is rotated the same way
  // by whichever thread runs it, so the gate changes no bit.
  const bool parallel_rounds = static_cast<long>(players / 2) * m > 32768;

  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    long rotations = 0;
    for (int round = 0; round < players - 1; ++round) {
      long round_rot = 0;
#pragma omp parallel for schedule(static) reduction(+ : round_rot) \
    if (parallel_rounds)
      for (int pair = 0; pair < players / 2; ++pair) {
        int p = ring[pair];
        int q = ring[players - 1 - pair];
        if (p >= n || q >= n) continue;  // padding slot
        if (p > q) std::swap(p, q);
        if (rotate_pair(cols.data(), opts.compute_uv ? vcols.data() : nullptr,
                        m, p, q, opts.tol)) {
          ++round_rot;
        }
      }
      rotations += round_rot;
      // Rotate the ring (position 0 fixed) to generate the next round.
      int last = ring[players - 1];
      for (int i = players - 1; i > 1; --i) ring[i] = ring[i - 1];
      ring[1] = last;
    }
    if (rotations == 0) break;
  }

  // Singular values are the column norms; sort descending.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norms(n);
  for (int j = 0; j < n; ++j) {
    double s = 0.0;
    for (int i = 0; i < m; ++i) s += cols[j][i] * cols[j][i];
    norms[j] = std::sqrt(s);
  }
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return norms[x] > norms[y]; });

  SVDResult out;
  out.s.resize(n);
  for (int j = 0; j < n; ++j) out.s[j] = norms[order[j]];

  if (opts.compute_uv) {
    // For A (possibly internally transposed): left vectors are normalized
    // rotated columns, right vectors are the accumulated rotations.
    Matrix uu(m, n), vv(n, n);
    for (int j = 0; j < n; ++j) {
      const int src = order[j];
      const double inv = out.s[j] > 0 ? 1.0 / out.s[j] : 0.0;
      for (int i = 0; i < m; ++i) uu(i, j) = cols[src][i] * inv;
      for (int i = 0; i < n; ++i) vv(i, j) = vcols[src][i];
    }
    if (transposed) {
      out.u = std::move(vv);
      out.v = std::move(uu);
    } else {
      out.u = std::move(uu);
      out.v = std::move(vv);
    }
  }
  return out;
}

std::vector<double> singular_values(const Matrix& a) {
  return svd(a, SVDOptions{}).s;
}

int effective_rank(const std::vector<double>& sigma, double threshold) {
  int k = 0;
  for (double s : sigma) {
    if (s > threshold) ++k;
  }
  return k;
}

}  // namespace khss::la
