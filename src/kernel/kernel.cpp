#include "kernel/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/contracts.hpp"
#include "util/threads.hpp"

#include "la/blas.hpp"
#include "la/gemm_kernel.hpp"

namespace khss::kernel {

namespace {
constexpr int kTile = 128;  // tile edge for blocked evaluation

// Inner-product tile through the packed gemm core:
// tile(0:ni, 0:nj) = X(i0.., :) * X(j0.., :)^T, ld(tile) = kTile.
void dot_tile(const la::Matrix& pts, int i0, int ni, int j0, int nj,
              double* tile) {
  const int d = pts.cols();
  for (int i = 0; i < ni; ++i) {
    std::memset(tile + static_cast<std::size_t>(i) * kTile, 0,
                sizeof(double) * nj);
  }
  la::detail::gemm_packed_serial(ni, nj, d, 1.0, pts.row(i0), d, false,
                                 pts.row(j0), d, true, tile, kTile);
}
}  // namespace

namespace {

// ---------------------------------------------------------------- registry
// One evaluator per kernel family, all over the same (dot, nx, ny) triple.
// The first three bodies are verbatim the original switch cases: the
// refactor must not move a single bit for existing Gaussian models.

double eval_gaussian(const KernelParams& params, double dot_xy, double nx,
                     double ny) {
  double d2 = nx + ny - 2.0 * dot_xy;
  if (d2 < 0.0) d2 = 0.0;  // rounding
  return std::exp(-d2 / (2.0 * params.h * params.h));
}

double eval_laplacian(const KernelParams& params, double dot_xy, double nx,
                      double ny) {
  double d2 = nx + ny - 2.0 * dot_xy;
  if (d2 < 0.0) d2 = 0.0;
  return std::exp(-std::sqrt(d2) / params.h);
}

double eval_polynomial(const KernelParams& params, double dot_xy,
                       double /*nx*/, double /*ny*/) {
  double base = dot_xy / (params.h * params.h) + params.coef0;
  double r = 1.0;
  for (int p = 0; p < params.degree; ++p) r *= base;
  return r;
}

// Matérn nu = 3/2:  (1 + t) e^{-t},  t = sqrt(3) r / h.
double eval_matern32(const KernelParams& params, double dot_xy, double nx,
                     double ny) {
  double d2 = nx + ny - 2.0 * dot_xy;
  if (d2 < 0.0) d2 = 0.0;
  const double t = std::sqrt(3.0 * d2) / params.h;
  return (1.0 + t) * std::exp(-t);
}

// Matérn nu = 5/2:  (1 + t + t^2/3) e^{-t},  t = sqrt(5) r / h.
double eval_matern52(const KernelParams& params, double dot_xy, double nx,
                     double ny) {
  double d2 = nx + ny - 2.0 * dot_xy;
  if (d2 < 0.0) d2 = 0.0;
  const double t = std::sqrt(5.0 * d2) / params.h;
  return (1.0 + t + t * t / 3.0) * std::exp(-t);
}

double eval_dot(const KernelParams& params, double dot_xy, double /*nx*/,
                double /*ny*/) {
  return dot_xy / (params.h * params.h);
}

double eval_sum(const KernelParams& params, double dot_xy, double nx,
                double ny) {
  double acc = 0.0;
  for (const KernelParams& t : params.terms) {
    acc += t.weight * kernel_from_products(t, dot_xy, nx, ny);
  }
  return acc;
}

double eval_product(const KernelParams& params, double dot_xy, double nx,
                    double ny) {
  double acc = 1.0;
  for (const KernelParams& t : params.terms) {
    acc *= t.weight * kernel_from_products(t, dot_xy, nx, ny);
  }
  return acc;
}

struct KernelFamily {
  KernelType type;
  const char* name;
  double (*eval)(const KernelParams&, double, double, double);
  bool composite;
};

constexpr KernelFamily kFamilies[] = {
    {KernelType::kGaussian, "gaussian", eval_gaussian, false},
    {KernelType::kLaplacian, "laplacian", eval_laplacian, false},
    {KernelType::kPolynomial, "polynomial", eval_polynomial, false},
    {KernelType::kMatern32, "matern32", eval_matern32, false},
    {KernelType::kMatern52, "matern52", eval_matern52, false},
    {KernelType::kDot, "dot", eval_dot, false},
    {KernelType::kSum, "sum", eval_sum, true},
    {KernelType::kProduct, "product", eval_product, true},
};

static_assert(sizeof(kFamilies) / sizeof(kFamilies[0]) == kNumKernelTypes,
              "registry rows must cover every KernelType value");

const KernelFamily& family(KernelType t) {
  const int i = static_cast<int>(t);
  KHSS_ASSERT_DBG(i >= 0 && i < kNumKernelTypes);
  return kFamilies[i];
}

}  // namespace

std::string kernel_name(KernelType t) { return family(t).name; }

bool kernel_is_composite(KernelType t) { return family(t).composite; }

KernelMatrix::KernelMatrix(la::Matrix points, KernelParams params,
                           double lambda)
    : points_(std::move(points)), params_(params), lambda_(lambda) {
  sqnorm_.resize(points_.rows());
  for (int i = 0; i < points_.rows(); ++i) {
    const double* row = points_.row(i);
    double s = 0.0;
    for (int j = 0; j < points_.cols(); ++j) s += row[j] * row[j];
    sqnorm_[i] = s;
  }
}

double kernel_from_products(const KernelParams& params, double dot_xy,
                            double nx, double ny) {
  return family(params.type).eval(params, dot_xy, nx, ny);
}

double KernelMatrix::from_products(double dot_xy, double nx, double ny) const {
  return kernel_from_products(params_, dot_xy, nx, ny);
}

void KernelMatrix::check_eval_budget() const {
  enforce_budget(0);
}

void KernelMatrix::enforce_budget(long incoming) const {
  if (eval_budget_ <= 0 || util::in_parallel()) return;
  const long spent = element_evals();
  if (spent + incoming <= eval_budget_) return;
  std::ostringstream msg;
  msg << "KernelMatrix: eval budget exceeded: " << spent
      << " element evals spent";
  if (incoming > 0) msg << " + " << incoming << " requested";
  msg << " > budget " << eval_budget_ << " (n = " << n()
      << "; a matrix-free pipeline should stay well below n^2 = "
      << static_cast<long>(n()) * n() << ")";
  throw EvalBudgetExceeded(msg.str());
}

double KernelMatrix::entry(int i, int j) const {
  KHSS_ASSERT_DBG(i >= 0 && i < n() && j >= 0 && j < n());
  const double* xi = points_.row(i);
  const double* xj = points_.row(j);
  double dot = 0.0;
  for (int k = 0; k < points_.cols(); ++k) dot += xi[k] * xj[k];
  double v = from_products(dot, sqnorm_[i], sqnorm_[j]);
  if (i == j) v += lambda_;
  return v;
}

void KernelMatrix::row_panel(int i, int lo, int hi, double* out) const {
  KHSS_ASSERT_DBG(i >= 0 && i < n() && lo >= 0 && lo <= hi && hi <= n());
  const int d = dim();
  const double* xi = points_.row(i);
  const double ni = sqnorm_[i];
  int j = lo;
  for (; j + 4 <= hi; j += 4) {
    const double* x0 = points_.row(j);
    const double* x1 = points_.row(j + 1);
    const double* x2 = points_.row(j + 2);
    const double* x3 = points_.row(j + 3);
    double dot0 = 0.0, dot1 = 0.0, dot2 = 0.0, dot3 = 0.0;
    for (int k = 0; k < d; ++k) {
      dot0 += xi[k] * x0[k];
      dot1 += xi[k] * x1[k];
      dot2 += xi[k] * x2[k];
      dot3 += xi[k] * x3[k];
    }
    out[j - lo] = from_products(dot0, ni, sqnorm_[j]);
    out[j + 1 - lo] = from_products(dot1, ni, sqnorm_[j + 1]);
    out[j + 2 - lo] = from_products(dot2, ni, sqnorm_[j + 2]);
    out[j + 3 - lo] = from_products(dot3, ni, sqnorm_[j + 3]);
  }
  for (; j < hi; ++j) {
    const double* xj = points_.row(j);
    double dot = 0.0;
    for (int k = 0; k < d; ++k) dot += xi[k] * xj[k];
    out[j - lo] = from_products(dot, ni, sqnorm_[j]);
  }
  if (i >= lo && i < hi) out[i - lo] += lambda_;
  count_evals(hi - lo);
}

la::Matrix KernelMatrix::extract(const std::vector<int>& rows,
                                 const std::vector<int>& cols) const {
  const int nr = static_cast<int>(rows.size());
  const int nc = static_cast<int>(cols.size());
  for (int i : rows) {
    KHSS_REQUIRE(i >= 0 && i < n(), "KernelMatrix::extract: row index "
                                        << i << " out of range [0, " << n()
                                        << ")");
  }
  for (int j : cols) {
    KHSS_REQUIRE(j >= 0 && j < n(), "KernelMatrix::extract: col index "
                                        << j << " out of range [0, " << n()
                                        << ")");
  }
  la::Matrix out(nr, nc);
  enforce_budget(static_cast<long>(nr) * nc);
  count_evals(static_cast<long>(nr) * nc);
  if (nr == 0 || nc == 0) return out;

  // Gather the two point subsets into contiguous panels, one packed GEMM
  // for all inner products, then the tile transform.  The packed core is
  // used unconditionally — never the small-product fallback — and the tile
  // transform's bits do not depend on the tile, so a given (i, j) entry has
  // exactly the same bits here as in dense(), multiply() and cross(): the
  // randomized HSS builder subtracts extract()-based diagonal blocks from
  // multiply()-based samples and relies on that cancellation staying below
  // its absolute rank floor.
  const la::Matrix rpts = points_.rows_subset(rows);
  const la::Matrix cpts = points_.rows_subset(cols);
  la::detail::gemm_packed_serial(nr, nc, points_.cols(), 1.0, rpts.data(),
                                 rpts.cols(), false, cpts.data(), cpts.cols(),
                                 true, out.data(), nc);
  std::vector<double> rnorm(nr), cnorm(nc);
  for (int r = 0; r < nr; ++r) rnorm[r] = sqnorm_[rows[r]];
  for (int c = 0; c < nc; ++c) cnorm[c] = sqnorm_[cols[c]];
  constexpr int kRowsPerTask = 16;
#pragma omp parallel for schedule(static) if (out.size() > 4096)
  for (int rb = 0; rb < nr; rb += kRowsPerTask) {
    const int ni = std::min(kRowsPerTask, nr - rb);
    kernel_tile_from_products(params_, ni, nc, out.row(rb), nc,
                              rnorm.data() + rb, cnorm.data());
    for (int r = rb; r < rb + ni; ++r) {
      double* orow = out.row(r);
      for (int c = 0; c < nc; ++c) {
        if (rows[r] == cols[c]) orow[c] += lambda_;
      }
    }
  }
  return out;
}

la::Matrix KernelMatrix::dense() const {
  const int nn = n();
  enforce_budget(static_cast<long>(nn) * nn);
  la::Matrix out(nn, nn);
  count_evals(static_cast<long>(nn) * nn);

  // syrk-style assembly: only tiles on or below the diagonal are computed —
  // inner products X_I X_J^T through the packed gemm core (the serving
  // path's panel scheme), the tile transform, then a mirror of the lower
  // triangle into the upper one.  Tiles are element-disjoint, so the parallel
  // dynamic schedule cannot change any value.
  const int ntiles = (nn + kTile - 1) / kTile;
#pragma omp parallel
  {
    std::vector<double> tile(static_cast<std::size_t>(kTile) * kTile);
#pragma omp for schedule(dynamic)
    for (int ibt = 0; ibt < ntiles; ++ibt) {
      const int ib = ibt * kTile;
      const int ni = std::min(kTile, nn - ib);
      for (int jb = 0; jb <= ib; jb += kTile) {
        const int nj = std::min(kTile, nn - jb);
        dot_tile(points_, ib, ni, jb, nj, tile.data());
        kernel_tile_from_products(params_, ni, nj, tile.data(), kTile,
                                  &sqnorm_[ib], &sqnorm_[jb]);
        const bool diag_tile = ib == jb;
        for (int i = 0; i < ni; ++i) {
          const double* trow = tile.data() + static_cast<std::size_t>(i) * kTile;
          double* orow = out.row(ib + i);
          const int jmax = diag_tile ? i + 1 : nj;
          for (int j = 0; j < jmax; ++j) {
            orow[jb + j] = trow[j];
            if (ib + i != jb + j) out(jb + j, ib + i) = trow[j];
          }
        }
      }
    }
  }
  for (int i = 0; i < nn; ++i) out(i, i) += lambda_;
  return out;
}

la::Matrix KernelMatrix::multiply(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n(), "KernelMatrix::multiply: X has "
                                    << x.rows() << " rows; expected n = "
                                    << n());
  const int nn = n(), s = x.cols();
  enforce_budget(static_cast<long>(nn) * nn);
  la::Matrix out(nn, s);

  // Tiles of K are materialized once, transformed, and immediately folded
  // into the output: S(I,:) += K(I,J) * X(J,:) — both products through the
  // packed gemm core.  Parallel over row tiles (each thread owns disjoint
  // output rows); the j-tile accumulation order is fixed, so the result is
  // thread-count invariant.
#pragma omp parallel
  {
    std::vector<double> tile(static_cast<std::size_t>(kTile) * kTile);
#pragma omp for schedule(dynamic)
    for (int ib = 0; ib < nn; ib += kTile) {
      const int ni = std::min(kTile, nn - ib);
      for (int jb = 0; jb < nn; jb += kTile) {
        const int nj = std::min(kTile, nn - jb);
        // tile = X_I * X_J^T  then the tile transform.
        dot_tile(points_, ib, ni, jb, nj, tile.data());
        kernel_tile_from_products(params_, ni, nj, tile.data(), kTile,
                                  &sqnorm_[ib], &sqnorm_[jb]);
        // S(I,:) += tile * X(J,:)
        la::detail::gemm_packed_serial(ni, s, nj, 1.0, tile.data(), kTile,
                                       false, x.row(jb), s, false, out.row(ib),
                                       s);
      }
      // Diagonal shift.
      if (lambda_ != 0.0) {
        for (int i = 0; i < ni; ++i) {
          double* orow = out.row(ib + i);
          const double* xrow = x.row(ib + i);
          for (int c = 0; c < s; ++c) orow[c] += lambda_ * xrow[c];
        }
      }
    }
  }
  count_evals(static_cast<long>(nn) * nn);
  return out;
}

la::Vector KernelMatrix::cross_times_vector(const la::Matrix& other_points,
                                            const la::Vector& w) const {
  KHSS_REQUIRE(other_points.rows() == 0 || other_points.cols() == dim(),
               "KernelMatrix::cross_times_vector: points have "
                   << other_points.cols() << " features; trained dim is "
                   << dim());
  KHSS_REQUIRE(static_cast<int>(w.size()) == n(),
               "KernelMatrix::cross_times_vector: w has "
                   << w.size() << " entries; expected n = " << n());
  const int m = other_points.rows(), nn = n(), d = dim();
  la::Vector y(m, 0.0);

  // Exact zero weights contribute nothing — iterate the nonzero support
  // only.  Landmark-style solvers (Nystrom) embed m << n coefficients in an
  // n-vector, so this keeps their prediction at O(m) work per test point.
  std::vector<int> support;
  support.reserve(nn);
  for (int j = 0; j < nn; ++j) {
    if (w[j] != 0.0) support.push_back(j);
  }
  enforce_budget(static_cast<long>(m) * static_cast<long>(support.size()));

#pragma omp parallel for schedule(dynamic, 8)
  for (int i = 0; i < m; ++i) {
    const double* xi = other_points.row(i);
    double ni = 0.0;
    for (int k = 0; k < d; ++k) ni += xi[k] * xi[k];
    double acc = 0.0;
    for (int j : support) {
      const double* xj = points_.row(j);
      double dot = 0.0;
      for (int k = 0; k < d; ++k) dot += xi[k] * xj[k];
      acc += w[j] * from_products(dot, ni, sqnorm_[j]);
    }
    y[i] = acc;
  }
  count_evals(static_cast<long>(m) * static_cast<long>(support.size()));
  return y;
}

la::Matrix KernelMatrix::cross(const la::Matrix& other_points) const {
  KHSS_REQUIRE(other_points.rows() == 0 || other_points.cols() == dim(),
               "KernelMatrix::cross: points have " << other_points.cols()
                   << " features; trained dim is " << dim());
  const int m = other_points.rows(), nn = n(), d = dim();
  enforce_budget(static_cast<long>(m) * nn);
  la::Matrix out(m, nn);
  count_evals(static_cast<long>(m) * nn);
  if (m == 0 || nn == 0) return out;
  // Row panels of the cross block: one packed gemm per panel straight into
  // the output rows, then the tile transform in place.
#pragma omp parallel for schedule(dynamic)
  for (int ib = 0; ib < m; ib += kTile) {
    const int ni = std::min(kTile, m - ib);
    la::detail::gemm_packed_serial(ni, nn, d, 1.0, other_points.row(ib), d,
                                   false, points_.data(), d, true, out.row(ib),
                                   nn);
    double norms[kTile];
    for (int i = 0; i < ni; ++i) {
      const double* xi = other_points.row(ib + i);
      double sq = 0.0;
      for (int k = 0; k < d; ++k) sq += xi[k] * xi[k];
      norms[i] = sq;
    }
    kernel_tile_from_products(params_, ni, nn, out.row(ib), nn, norms,
                              sqnorm_.data());
  }
  return out;
}

}  // namespace khss::kernel
