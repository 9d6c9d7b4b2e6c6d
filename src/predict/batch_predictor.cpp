#include "predict/batch_predictor.hpp"

#include <algorithm>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::predict {

namespace {
// Fixed training-column tile width.  Independent of PredictOptions so the
// per-row accumulation order — tile by tile, j ascending inside a tile — is
// the same for every panel_rows setting and thread count.
constexpr int kTrainTile = 128;
}  // namespace

BatchPredictor::BatchPredictor(const kernel::KernelMatrix& kernel,
                               const la::Matrix& weights, PredictOptions opts)
    : params_(kernel.params()),
      opts_(opts),
      dim_(kernel.dim()),
      num_outputs_(weights.cols()) {
  KHSS_REQUIRE(weights.rows() == kernel.n(),
               "BatchPredictor: weights has " << weights.rows()
                   << " rows but the kernel holds n = " << kernel.n()
                   << " training points");

  // Prune rows of W that are zero across every output; what remains is the
  // support the cross-kernel sweep actually has to touch.
  std::vector<int> support;
  support.reserve(weights.rows());
  for (int j = 0; j < weights.rows(); ++j) {
    const double* wrow = weights.row(j);
    for (int c = 0; c < weights.cols(); ++c) {
      if (wrow[c] != 0.0) {
        support.push_back(j);
        break;
      }
    }
  }
  support_size_ = static_cast<int>(support.size());

  const la::Matrix& train = kernel.points();
  for (int jb = 0; jb < support_size_; jb += kTrainTile) {
    const int t = std::min(kTrainTile, support_size_ - jb);
    Tile tile;
    tile.points.resize(t, dim_);
    tile.weights.resize(t, num_outputs_);
    tile.sqnorm.resize(t);
    for (int j = 0; j < t; ++j) {
      const int src = support[jb + j];
      const double* xrow = train.row(src);
      double s = 0.0;
      for (int k = 0; k < dim_; ++k) {
        tile.points(j, k) = xrow[k];
        s += xrow[k] * xrow[k];
      }
      tile.sqnorm[j] = s;
      const double* wrow = weights.row(src);
      for (int c = 0; c < num_outputs_; ++c) tile.weights(j, c) = wrow[c];
    }
    tiles_.push_back(std::move(tile));
  }
}

void BatchPredictor::enable_variance(const kernel::KernelMatrix* kernel,
                                     VarianceSolveFn solve) {
  KHSS_REQUIRE(kernel != nullptr && solve,
               "BatchPredictor::enable_variance: null kernel or solve");
  KHSS_REQUIRE(kernel->dim() == dim_,
               "BatchPredictor::enable_variance: kernel dim "
                   << kernel->dim() << " != predictor dim " << dim_);
  variance_kernel_ = kernel;
  variance_solve_ = std::move(solve);
}

la::Vector BatchPredictor::compute_variance(const la::Matrix& points) const {
  KHSS_REQUIRE_STATE(variance_kernel_ != nullptr,
                     "BatchPredictor: variance requested but no variance path "
                     "is attached (see KRRModel::attach_variance)");
  const int m = points.rows();
  la::Vector out(m, 0.0);
  if (m == 0) return out;

  // sigma^2(x) = k(x, x) - k_*^T (K + lambda I)^{-1} k_*: the cross-kernel
  // panel C = K(test, train) feeds ONE multi-RHS backend solve (one column
  // per test point), then the quadratic form is a row dot.  X is transposed
  // back so both factors of the dot are contiguous rows.  Each point's
  // column solves independently (every backend's multi-RHS path is
  // RHS-split invariant), so variances are batch-split invariant too.
  la::Matrix c = variance_kernel_->cross(points);       // m x n
  la::Matrix x = variance_solve_(c.transposed());       // n x m
  KHSS_REQUIRE(x.rows() == c.cols() && x.cols() == m,
               "BatchPredictor: variance solve returned "
                   << x.rows() << " x " << x.cols() << "; expected "
                   << c.cols() << " x " << m);
  la::Matrix xt = x.transposed();                       // m x n
  for (int i = 0; i < m; ++i) {
    const double* xi = points.row(i);
    double s = 0.0;
    for (int k = 0; k < dim_; ++k) s += xi[k] * xi[k];
    const double kself = kernel::kernel_from_products(params_, s, s, s);
    const double* crow = c.row(i);
    const double* xrow = xt.row(i);
    double quad = 0.0;
    for (int j = 0; j < c.cols(); ++j) quad += crow[j] * xrow[j];
    out[i] = kself - quad;
  }
  return out;
}

void BatchPredictor::predict_batch(const la::Matrix& points,
                                   la::Matrix& out_scores,
                                   la::Vector* out_variance) const {
  predict_batch(points, out_scores);
  if (out_variance != nullptr) *out_variance = compute_variance(points);
}

void BatchPredictor::predict_batch(const la::Matrix& points,
                                   la::Matrix& out_scores) const {
  KHSS_REQUIRE(points.rows() == 0 || points.cols() == dim_,
               "BatchPredictor::predict_batch: points have "
                   << points.cols() << " features; trained dim is " << dim_);
  util::Timer timer;
  const int m = points.rows(), c = num_outputs_;
  out_scores.resize(m, c);  // zero-filled

  if (m > 0 && c > 0 && !tiles_.empty()) {
    const int panel = std::max(1, opts_.panel_rows);
    // This fan-out owns the parallelism: the la::gemm calls below sit inside
    // the active region, so the packed core's in-parallel gate runs them
    // serial per panel — panels never oversubscribe with nested GEMM teams.
    // (When OMP_NUM_THREADS=1 the region is inactive and the GEMMs may
    // thread internally instead; either way the bits are identical.)
#pragma omp parallel for schedule(dynamic)
    for (int ib = 0; ib < m; ib += panel) {
      const int pi = std::min(panel, m - ib);
      la::Matrix xpanel = points.block(ib, 0, pi, dim_);
      std::vector<double> sq(pi);
      for (int i = 0; i < pi; ++i) {
        const double* xi = xpanel.row(i);
        double s = 0.0;
        for (int k = 0; k < dim_; ++k) s += xi[k] * xi[k];
        sq[i] = s;
      }

      la::Matrix scores(pi, c);
      // Panel buffers: every tile matches the first one's width except (at
      // most) the ragged last one, so g_tail is shaped once; gemm's beta=0
      // pass overwrites every entry, no per-tile zero-fill needed.
      la::Matrix g_main(pi, tiles_.front().points.rows());
      la::Matrix g_tail;
      for (const Tile& tile : tiles_) {
        const int t = tile.points.rows();
        la::Matrix* g = &g_main;
        if (t != g_main.cols()) {
          g_tail.resize(pi, t);
          g = &g_tail;
        }
        // G = X_panel * X_tile^T, then the tile transform turns inner
        // products into kernel values.
        la::gemm(1.0, xpanel, la::Trans::kNo, tile.points, la::Trans::kYes,
                 0.0, *g);
        kernel::kernel_tile_from_products(params_, pi, t, g->data(), t,
                                          sq.data(), tile.sqnorm.data());
        // S_panel += G * W_tile: every output column in one pass.
        la::gemm(1.0, *g, la::Trans::kNo, tile.weights, la::Trans::kNo, 1.0,
                 scores);
      }
      out_scores.set_block(ib, 0, scores);
    }
  }

  stats_.points.fetch_add(m, std::memory_order_relaxed);
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.kernel_evals.fetch_add(static_cast<long>(m) * support_size_,
                                std::memory_order_relaxed);
  const double dt = timer.seconds();
  double cur = stats_.seconds.load(std::memory_order_relaxed);
  while (!stats_.seconds.compare_exchange_weak(cur, cur + dt,
                                               std::memory_order_relaxed)) {
  }
}

PredictStats BatchPredictor::stats() const {
  PredictStats s;
  s.points = stats_.points.load(std::memory_order_relaxed);
  s.batches = stats_.batches.load(std::memory_order_relaxed);
  s.kernel_evals = stats_.kernel_evals.load(std::memory_order_relaxed);
  s.seconds = stats_.seconds.load(std::memory_order_relaxed);
  return s;
}

la::Matrix BatchPredictor::predict(const la::Matrix& points) const {
  la::Matrix scores;
  predict_batch(points, scores);
  return scores;
}

la::Vector predict_single(const kernel::KernelMatrix& kernel,
                          const la::Vector& w, const la::Matrix& points,
                          PredictOptions opts) {
  la::Matrix wm(static_cast<int>(w.size()), 1);
  for (std::size_t i = 0; i < w.size(); ++i) {
    wm(static_cast<int>(i), 0) = w[i];
  }
  la::Matrix scores = BatchPredictor(kernel, wm, opts).predict(points);
  la::Vector out(scores.rows());
  for (int i = 0; i < scores.rows(); ++i) out[i] = scores(i, 0);
  return out;
}

}  // namespace khss::predict
