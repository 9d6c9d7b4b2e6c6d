#include "hmat/aca.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"

namespace khss::hmat {

la::Matrix LowRank::dense() const {
  return la::matmul(u, v, la::Trans::kNo, la::Trans::kYes);
}

PanelFn kernel_panels(const kernel::KernelMatrix& k, int row_lo, int row_hi,
                      int col_lo, int col_hi) {
  PanelFn p;
  p.row = [&k, row_lo, col_lo, col_hi](int i, double* out) {
    k.row_panel(row_lo + i, col_lo, col_hi, out);
  };
  p.col = [&k, row_lo, row_hi, col_lo](int j, double* out) {
    k.row_panel(col_lo + j, row_lo, row_hi, out);
  };
  return p;
}

bool aca(int m, int n, const PanelFn& panels, const ACAOptions& opts,
         LowRank* out) {
  const int full_rank = std::min(m, n);
  const int rank_cap = opts.max_rank > 0 ? std::min(opts.max_rank, full_rank)
                                         : std::max(1, full_rank / 2);

  // Factors grown column by column (stored as vectors of columns to avoid
  // quadratic re-allocation).
  std::vector<la::Vector> ucols, vcols;
  std::vector<char> row_used(m, 0), col_used(n, 0);

  // Pack whatever has been accumulated into `out` — every return path must
  // do this (an earlier version dropped the factors on the tiny-pivot
  // paths, silently approximating partially-captured blocks by zero).
  auto pack = [&]() {
    out->u = la::Matrix(m, static_cast<int>(ucols.size()));
    out->v = la::Matrix(n, static_cast<int>(vcols.size()));
    for (std::size_t c = 0; c < ucols.size(); ++c) {
      for (int i = 0; i < m; ++i) out->u(i, static_cast<int>(c)) = ucols[c][i];
      for (int j = 0; j < n; ++j) out->v(j, static_cast<int>(c)) = vcols[c][j];
    }
  };

  double norm2_est = 0.0;  // ||A_k||_F^2 running estimate
  double scale = 0.0;      // largest |entry| magnitude sampled so far
  int next_row = 0;
  int tiny_pivots = 0;

  for (int k = 0; k < rank_cap; ++k) {
    // Residual row `next_row`: r = A(i,:) - sum_j u_j(i) v_j.
    la::Vector r(n);
    panels.row(next_row, r.data());
    for (std::size_t t = 0; t < ucols.size(); ++t) {
      const double ui = ucols[t][next_row];
      if (ui == 0.0) continue;
      const la::Vector& vt = vcols[t];
      for (int j = 0; j < n; ++j) r[j] -= ui * vt[j];
    }
    row_used[next_row] = 1;

    // Column pivot: largest residual entry among unused columns.
    int piv = -1;
    double piv_abs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (col_used[j]) continue;
      const double a = std::fabs(r[j]);
      if (a > piv_abs) {
        piv_abs = a;
        piv = j;
      }
    }

    // A pivot far below the magnitudes already seen is numerical noise:
    // dividing the row by it would inject enormous spurious factors (kernel
    // blocks with a wide dynamic range — e.g. a small-bandwidth Gaussian
    // between well-separated clusters — can have rows 30+ orders of
    // magnitude below their columns).  Treat such rows as captured and move
    // to a different one instead of dividing.
    if (piv < 0 || piv_abs < 1e-300 || piv_abs < 1e-14 * scale) {
      ++tiny_pivots;
      if (tiny_pivots >= opts.min_pivot_tries) {
        pack();
        return true;
      }
      int candidate = -1;
      for (int i = 0; i < m; ++i) {
        if (!row_used[i]) {
          candidate = i;
          break;
        }
      }
      if (candidate < 0) {  // every row visited: done
        pack();
        return true;
      }
      next_row = candidate;
      --k;  // retry without consuming rank budget
      continue;
    }
    tiny_pivots = 0;
    col_used[piv] = 1;
    scale = std::max(scale, piv_abs);

    // v_k = residual row / pivot;  u_k = residual column at the pivot.
    la::Vector vk(n);
    const double inv = 1.0 / r[piv];
    for (int j = 0; j < n; ++j) vk[j] = r[j] * inv;

    la::Vector uk(m);
    panels.col(piv, uk.data());
    for (std::size_t t = 0; t < ucols.size(); ++t) {
      const double vj = vcols[t][piv];
      if (vj == 0.0) continue;
      const la::Vector& ut = ucols[t];
      for (int i = 0; i < m; ++i) uk[i] -= vj * ut[i];
    }
    for (int i = 0; i < m; ++i) scale = std::max(scale, std::fabs(uk[i]));

    // Update the Frobenius norm estimate of the approximation:
    // ||A_k||^2 = ||A_{k-1}||^2 + 2 sum_t (u_t . u_k)(v_t . v_k) + |u_k|^2 |v_k|^2.
    const double uk2 = la::dot(uk, uk);
    const double vk2 = la::dot(vk, vk);
    double cross = 0.0;
    for (std::size_t t = 0; t < ucols.size(); ++t) {
      cross += la::dot(ucols[t], uk) * la::dot(vcols[t], vk);
    }
    norm2_est += 2.0 * cross + uk2 * vk2;
    if (norm2_est < 0.0) norm2_est = uk2 * vk2;

    ucols.push_back(std::move(uk));
    vcols.push_back(std::move(vk));

    // Convergence: the new term is small relative to the whole block, or the
    // factorization reached full rank (then it is exact by construction).
    if (uk2 * vk2 <= opts.rtol * opts.rtol * norm2_est ||
        static_cast<int>(ucols.size()) == full_rank) {
      break;
    }
    if (k + 1 == rank_cap) {
      // Rank cap reached without the last term becoming negligible.
      // Pack factors anyway so the caller can decide.
      pack();
      return false;
    }

    // Next row: largest |u_k| among unused rows (steers toward the part of
    // the block worst approximated so far).
    next_row = -1;
    double best = -1.0;
    const la::Vector& lastu = ucols.back();
    for (int i = 0; i < m; ++i) {
      if (row_used[i]) continue;
      const double a = std::fabs(lastu[i]);
      if (a > best) {
        best = a;
        next_row = i;
      }
    }
    if (next_row < 0) break;  // all rows visited
  }

  pack();
  return true;
}

bool validate_lowrank(int m, int n, const PanelFn& panels, const LowRank& lr,
                      double rtol, int max_probes) {
  if (m == 0 || n == 0) return true;
  // Deterministic stride sample of FULL rows and FULL columns: the probe set
  // differs from the pivot rows ACA consumed, so systematic misses (content
  // in rows ACA never looked at) show up here.  Probing both directions
  // means a missed region escapes only if it dodges every sampled row AND
  // every sampled column — with clustered orderings placing related points
  // contiguously, that needs the region to be smaller than one row stride by
  // one column stride.
  const int row_probes = std::min(m, max_probes);
  const int row_stride = std::max(1, m / row_probes);
  const int col_probes = std::min(n, max_probes);
  const int col_stride = std::max(1, n / col_probes);
  double err2 = 0.0, ref2 = 0.0;
  std::vector<double> panel(std::max(m, n));
  for (int i = 0; i < m; i += row_stride) {
    panels.row(i, panel.data());
    for (int j = 0; j < n; ++j) {
      const double a = panel[j];
      double rec = 0.0;
      for (int c = 0; c < lr.rank(); ++c) rec += lr.u(i, c) * lr.v(j, c);
      err2 += (rec - a) * (rec - a);
      ref2 += a * a;
    }
  }
  for (int j = 0; j < n; j += col_stride) {
    panels.col(j, panel.data());
    for (int i = 0; i < m; ++i) {
      const double a = panel[i];
      double rec = 0.0;
      for (int c = 0; c < lr.rank(); ++c) rec += lr.u(i, c) * lr.v(j, c);
      err2 += (rec - a) * (rec - a);
      ref2 += a * a;
    }
  }
  // Relative check with an absolute floor: an all-tiny sample with an
  // all-tiny reconstruction is fine regardless of the ratio.
  return err2 <= rtol * rtol * ref2 + 1e-280;
}

LowRank dense_svd_lowrank(int m, int n, const PanelFn& panels, double rtol) {
  LowRank lr;
  if (m == 0 || n == 0) return lr;
  la::Matrix block(m, n);
  for (int i = 0; i < m; ++i) panels.row(i, block.row(i));
  la::SVDOptions svd_opts;
  svd_opts.compute_uv = true;
  la::SVDResult s = la::svd(block, svd_opts);
  int keep = 0;
  const double cutoff = s.s.empty() ? 0.0 : rtol * s.s[0];
  while (keep < static_cast<int>(s.s.size()) && s.s[keep] > cutoff) ++keep;
  if (keep == 0) return lr;  // numerically zero block
  lr.u = s.u.block(0, 0, m, keep);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < keep; ++j) lr.u(i, j) *= s.s[j];
  }
  lr.v = s.v.block(0, 0, n, keep);
  return lr;
}

void recompress(LowRank* lr, double rtol) {
  const int k = lr->rank();
  if (k == 0) return;

  // U = Qu Ru, V = Qv Rv;  core = Ru Rv^T (k x k);  SVD and truncate.
  la::QRFactor qu(lr->u);
  la::QRFactor qv(lr->v);
  la::Matrix core =
      la::matmul(qu.r(), qv.r(), la::Trans::kNo, la::Trans::kYes);

  la::SVDOptions svd_opts;
  svd_opts.compute_uv = true;
  la::SVDResult s = la::svd(core, svd_opts);

  int keep = 0;
  const double cutoff = s.s.empty() ? 0.0 : rtol * s.s[0];
  while (keep < static_cast<int>(s.s.size()) && s.s[keep] > cutoff) ++keep;
  if (keep == 0) keep = 1;
  if (keep >= k) return;  // nothing gained

  la::Matrix qu_thin = qu.q_thin();
  la::Matrix qv_thin = qv.q_thin();

  // New U = Qu * Us * diag(s), new V = Qv * Vs.
  la::Matrix us = s.u.block(0, 0, k, keep);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < keep; ++j) us(i, j) *= s.s[j];
  }
  lr->u = la::matmul(qu_thin, us);
  lr->v = la::matmul(qv_thin, s.v.block(0, 0, k, keep));
}

}  // namespace khss::hmat
