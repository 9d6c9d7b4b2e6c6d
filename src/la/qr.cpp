#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "la/blas.hpp"
#include "util/isa.hpp"

namespace khss::la {

namespace {

// Columns per panel: the unit of one reflector sweep.  A full panel's sums
// stay in registers.  Any width gives the same bits.
constexpr int kPanel = 32;

// One sweep down the rows of a row-major panel B (rows x len, leading
// dimension ld) that carries up to two reflectors H = I - tau v v^T, v(0) = 1:
//   finish (w set):  the update of a reflector P whose first row is panel
//                    row p and whose scaled sums w = tau * s are known:
//                      b(p,c) -= w(c);  b(i,c) -= w(c) * vp[i-p-1], i > p;
//   sum (vn set):    the sums of the next reflector N, first row 0:
//                      s(c) = b(0,c);  s(c) += vn[i-1] * b(i,c), i = 1, 2, ...
//                    each row read after P has updated it.
// Per column these are the classic column loop's operations in its order,
// but rows run in the outer loop and contiguous columns in the inner one:
// the inner loops are unit-stride axpys that vectorize across columns
// without reassociating any sum.
struct Sweep {
  double* b = nullptr;
  std::size_t ld = 0;
  int rows = 0;
  int len = 0;
  const double* w = nullptr;   // finish: P's scaled sums (len entries)
  const double* vp = nullptr;  // finish: P's v below its first row
  int p = 0;                   // finish: P's first row (>= 1 with a sum)
  const double* vn = nullptr;  // sum: N's v below row 0
  double* s = nullptr;         // sum: N's sums out (len entries)
};

// kW > 0 fixes len = kW and holds w and s in local arrays the compiler
// keeps in registers; kW = 0 reads and writes them in place.
template <int kW, bool kFinish, bool kSum>
KHSS_ALWAYS_INLINE void sweep_t(const Sweep& a) {
  const int n = kW > 0 ? kW : a.len;
  double wl[kW > 0 ? kW : 1];
  double sl[kW > 0 ? kW : 1];
  const double* __restrict w = a.w;
  double* __restrict s = kW > 0 ? sl : a.s;
  if constexpr (kW > 0 && kFinish) {
    for (int c = 0; c < n; ++c) wl[c] = a.w[c];
    w = wl;
  }
  double* b = a.b;
  const int p = kFinish ? a.p : a.rows;
  if constexpr (kSum) {
    for (int c = 0; c < n; ++c) s[c] = b[c];
    for (int i = 1; i < p; ++i) {
      const double vi = a.vn[i - 1];
      const double* __restrict bi = b + i * a.ld;
      for (int c = 0; c < n; ++c) s[c] += vi * bi[c];
    }
  }
  if constexpr (kFinish) {
    double* __restrict bp = b + p * a.ld;
    for (int c = 0; c < n; ++c) bp[c] -= w[c];
    if constexpr (kSum) {
      const double vi = a.vn[p - 1];
      for (int c = 0; c < n; ++c) s[c] += vi * bp[c];
    }
    for (int i = p + 1; i < a.rows; ++i) {
      const double vpi = a.vp[i - p - 1];
      double* __restrict bi = b + i * a.ld;
      if constexpr (kSum) {
        const double vni = a.vn[i - 1];
        for (int c = 0; c < n; ++c) {
          bi[c] -= w[c] * vpi;
          s[c] += vni * bi[c];
        }
      } else {
        for (int c = 0; c < n; ++c) bi[c] -= w[c] * vpi;
      }
    }
  }
  if constexpr (kW > 0 && kSum) {
    for (int c = 0; c < n; ++c) a.s[c] = s[c];
  }
}

template <int kW>
KHSS_ALWAYS_INLINE void sweep_w(const Sweep& a) {
  if (a.w != nullptr && a.vn != nullptr) {
    sweep_t<kW, true, true>(a);
  } else if (a.w != nullptr) {
    sweep_t<kW, true, false>(a);
  } else {
    sweep_t<kW, false, true>(a);
  }
}

KHSS_ALWAYS_INLINE void sweep_any(const Sweep& a) {
  if (a.len == kPanel) {
    sweep_w<kPanel>(a);
  } else {
    sweep_w<0>(a);
  }
}

// ISA variants, picked once per process from the host CPU.  The AVX2
// variant leaves FMA out of its target, so no a * b + c can be contracted
// and every variant computes the baseline's bits.
using SweepFn = void (*)(const Sweep&);
void sweep_generic(const Sweep& a) { sweep_any(a); }
#if defined(KHSS_ISA_MULTIVERSION)
KHSS_TGT_AVX2_NOFMA void sweep_avx2(const Sweep& a) { sweep_any(a); }
#endif

SweepFn pick_sweep() {
#if defined(KHSS_ISA_MULTIVERSION)
  if (util::cpu_has_avx2()) return sweep_avx2;
#endif
  return sweep_generic;
}

void sweep(const Sweep& a) {
  static const SweepFn fn = pick_sweep();
  fn(a);
}

}  // namespace

namespace detail {

double column_norm(const Matrix& a, int j, int i0) {
  double s = 0.0;
  for (int i = i0; i < a.rows(); ++i) s += a(i, j) * a(i, j);
  return std::sqrt(s);
}

double make_reflector(Matrix& a, int j, double norm) {
  const double alpha = a(j, j) >= 0 ? -norm : norm;
  const double v0 = a(j, j) - alpha;
  // Normalize so v(j) = 1; store v(j+1..) below the diagonal.
  for (int i = j + 1; i < a.rows(); ++i) a(i, j) /= v0;
  a(j, j) = alpha;
  return -v0 / alpha;  // = 2 / (v^T v) with v(j) = 1 scaling
}

void reflect_trailing(Matrix& a, int j, double tau) {
  const int m = a.rows(), n = a.cols();
  const int c0 = j + 1;
  if (c0 >= n) return;
  std::vector<double> v(m - c0);
  for (int i = c0; i < m; ++i) v[i - c0] = a(i, j);
  double s[kPanel];
  for (int lo = c0; lo < n; lo += kPanel) {
    Sweep sum;
    sum.b = a.row(j) + lo;
    sum.ld = n;
    sum.rows = m - j;
    sum.len = std::min(n - lo, kPanel);
    sum.vn = v.data();
    sum.s = s;
    sweep(sum);
    for (int c = 0; c < sum.len; ++c) s[c] *= tau;
    Sweep finish = sum;
    finish.vn = nullptr;
    finish.s = nullptr;
    finish.w = s;
    finish.vp = v.data();
    sweep(finish);
  }
}

}  // namespace detail

QRFactor::QRFactor(Matrix a) : a_(std::move(a)) {
  const int m = a_.rows(), n = a_.cols();
  const int k = m < n ? m : n;
  tau_.assign(k, 0.0);
  for (int j = 0; j < k; ++j) {
    const double norm = detail::column_norm(a_, j, j);
    if (norm == 0.0) continue;  // tau = 0: H_j is the identity
    tau_[j] = detail::make_reflector(a_, j, norm);
    detail::reflect_trailing(a_, j, tau_[j]);
  }
}

Matrix QRFactor::r() const {
  const int m = a_.rows(), n = a_.cols();
  const int k = m < n ? m : n;
  Matrix out(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < n; ++j) out(i, j) = a_(i, j);
  }
  return out;
}

// Q(:, 0:ncols) = H_0 H_1 ... H_{k-1} I(:, 0:ncols), reflectors applied last
// to first.  When H_j is applied, columns c < j are still identity columns,
// zero in rows j.. (only H_{j+1}.. have acted, on columns > j), so H_j maps
// them to themselves exactly for finite v; only columns c >= j are touched
// (LAPACK dorg2r's structure).  Each column panel runs the whole reflector
// chain while it is cache-resident, one sweep per reflector: the sweep that
// finishes H_j also sums H_j' (the next nonzero reflector, j' < j).  The
// columns H_j' adds to the panel are identity columns for H_j, which a zero
// w leaves exactly as they are.
Matrix QRFactor::form_q(int ncols) const {
  const int m = a_.rows();
  const int k = static_cast<int>(tau_.size());
  Matrix q(m, ncols);
  for (int i = 0; i < std::min(m, ncols); ++i) q(i, i) = 1.0;

  // Reflector vectors packed contiguously: v_j = a_(j+1:m, j) at off[j].
  std::vector<std::size_t> off(k + 1, 0);
  for (int j = 0; j < k; ++j) off[j + 1] = off[j] + (m - j - 1);
  std::vector<double> vs(off[k]);
  for (int i = 1; i < m; ++i) {
    for (int j = 0; j < std::min(i, k); ++j) vs[off[j] + (i - j - 1)] = a_(i, j);
  }
  // Next nonzero reflector at or below j (-1 when none): tau = 0 reflectors
  // are the identity and skipped.
  auto nonzero_at_or_below = [&](int j) {
    while (j >= 0 && tau_[j] == 0.0) --j;
    return j;
  };

  for (int lo = 0; lo < ncols; lo += kPanel) {
    const int hi = std::min(ncols, lo + kPanel);
    int j = nonzero_at_or_below(std::min(k, hi) - 1);
    if (j < 0) continue;
    double s[kPanel], w[kPanel];
    int c0 = std::max(lo, j);
    Sweep sum;
    sum.b = q.row(j) + c0;
    sum.ld = ncols;
    sum.rows = m - j;
    sum.len = hi - c0;
    sum.vn = vs.data() + off[j];
    sum.s = s;
    sweep(sum);
    for (;;) {
      const int jn = nonzero_at_or_below(j - 1);
      const int cn = jn < 0 ? c0 : std::max(lo, jn);
      for (int c = cn; c < c0; ++c) w[c - cn] = 0.0;
      for (int c = c0; c < hi; ++c) w[c - cn] = s[c - c0] * tau_[j];
      Sweep sw;
      sw.ld = ncols;
      sw.len = hi - cn;
      sw.w = w;
      sw.vp = vs.data() + off[j];
      if (jn < 0) {
        sw.b = q.row(j) + cn;
        sw.rows = m - j;
        sweep(sw);
        break;
      }
      sw.b = q.row(jn) + cn;
      sw.rows = m - jn;
      sw.p = j - jn;
      sw.vn = vs.data() + off[jn];
      sw.s = s;
      sweep(sw);
      j = jn;
      c0 = cn;
    }
  }
  return q;
}

Matrix QRFactor::q_thin() const { return form_q(std::min(rows(), cols())); }

Matrix QRFactor::q_full() const { return form_q(rows()); }

QLResult ql_zero_top(const Matrix& u) {
  const int m = u.rows(), r = u.cols();
  KHSS_REQUIRE(m >= r, "la::ql_zero_top: U is " << m << " x " << r
                           << "; needs rows >= cols");

  // Reverse rows and columns, factor with plain QR, then map back:
  //   P_m U P_r = Q R  =>  U = (P_m Q P_m) (P_m R P_r)
  // and P_m R P_r has the [0; L] shape with L lower triangular.  Reversing
  // both axes of a row-major matrix reverses its storage.
  const auto reverse_both = [](Matrix& a) {
    std::reverse(a.data(), a.data() + a.size());
  };
  Matrix w = u;
  reverse_both(w);
  QRFactor qr(std::move(w));

  QLResult out;
  out.omega = qr.q_full().transposed();  // Omega = P_m Q^T P_m
  reverse_both(out.omega);
  // L = the bottom r x r block of P_m [R; 0] P_r = R (r x r, since
  // min(m, r) = r) with both axes reversed.
  out.l = qr.r();
  reverse_both(out.l);
  return out;
}

LQResult lq(const Matrix& a) {
  const int me = a.rows(), m = a.cols();
  KHSS_REQUIRE(me <= m, "la::lq: A is " << me << " x " << m
                            << "; needs rows <= cols");

  // A^T = Q2 R2 (full Q2 m x m, R2 upper-trapezoid m x me)
  // => A = R2^T Q2^T = [L 0] Q with Q = Q2^T, L = top me x me of R2, transposed.
  QRFactor qr(a.transposed());
  LQResult out;
  out.l = qr.r().transposed();  // me x me (min(m, me) = me rows)
  out.q = qr.q_full().transposed();
  return out;
}

double orthogonality_error(const Matrix& q) {
  Matrix g = matmul(q, q, Trans::kYes, Trans::kNo);
  g.shift_diagonal(-1.0);
  return norm_f(g);
}

}  // namespace khss::la
