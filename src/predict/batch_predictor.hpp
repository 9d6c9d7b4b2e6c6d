#pragma once
// Batched prediction — the serving path.
//
// Training dispatches through seven solver backends, but every backend ends
// at the same scoring product: S = K(test, train) * W, with one weight
// column per right-hand side (one per class for one-vs-all, Section 2 of the
// paper).  The per-point path (KernelMatrix::cross_times_vector) walks one
// test point and one weight vector at a time, so multiclass scoring pays
// `num_classes` full cross-kernel sweeps.  BatchPredictor evaluates the
// cross-kernel block in cache-sized row panels instead and multiplies each
// panel against the *whole* multi-RHS weight matrix: one kernel sweep scores
// every class.
//
// Layout: at construction the training side is frozen into column tiles of
// fixed width (points + squared norms + weight rows per tile).  Rows of W
// that are zero across every output are pruned from the support up front —
// for the Nystrom backend, whose full-length weight vector is the landmark
// coefficients embedded at the landmark indices, this is the fast path that
// only ever touches landmark columns.  Each predict_batch() call then runs
//   G   = X_panel * X_tile^T          (blocked gemm via la::Matrix)
//   G  <- kernel transform(G)         (kernel::kernel_tile_from_products)
//   S_panel += G * W_tile             (multi-RHS accumulation)
// with OpenMP parallelism over row panels.  Every output row's arithmetic
// stream is independent of the panel it lands in and of the thread count, so
// scores are bit-identical for any panel_rows / batch split / thread count
// (pinned by tests/test_determinism.cpp).
//
// The predictor copies everything it needs (support points, weights, kernel
// parameters); it holds no reference to the KernelMatrix or the model, so it
// can outlive both — build once at fit time, serve mini-batches forever.
//
// GP posterior variance (optional): scoring alone cannot produce
//   sigma^2(x) = k(x, x) - k_*^T (K + lambda I)^{-1} k_*
// because the quadratic form needs a solve against the trained operator, and
// the predictor deliberately owns no solver.  enable_variance() attaches a
// variance path — the training-side KernelMatrix plus a multi-RHS solve
// callback (KRRModel::attach_variance wires both) — after which the
// three-argument predict_batch() fills one sigma^2 per test point.  The
// scoring arithmetic is untouched whether or not variance is requested, and
// each point's variance depends only on its own cross-kernel column, so
// scores AND variances stay batch-split invariant.  Unlike scoring, a
// variance-enabled predictor must NOT outlive the model it was attached to.

#include <atomic>
#include <functional>
#include <vector>

#include "kernel/kernel.hpp"
#include "la/matrix.hpp"

namespace khss::predict {

struct PredictOptions {
  /// Test-point rows per cache panel (the OpenMP work unit).  Results are
  /// bit-identical for any value; this only tunes cache locality.
  int panel_rows = 64;
};

/// Snapshot of the serving counters accumulated across predict_batch()
/// calls (see BatchPredictor::stats()).
struct PredictStats {
  long points = 0;        // test points scored
  long batches = 0;       // predict_batch() calls
  long kernel_evals = 0;  // cross-kernel elements evaluated
  double seconds = 0.0;   // wall time inside predict_batch()
};

class BatchPredictor {
 public:
  /// `kernel` holds the (cluster-permuted) training points; `weights` is
  /// n x c in the SAME permuted order, one column per output.  Everything is
  /// copied — the kernel matrix need not outlive the predictor.  Throws
  /// std::invalid_argument when weights.rows() != kernel.n().
  BatchPredictor(const kernel::KernelMatrix& kernel, const la::Matrix& weights,
                 PredictOptions opts = {});

  int dim() const { return dim_; }
  int num_outputs() const { return num_outputs_; }
  /// Training columns that survived zero-weight pruning (== the landmark
  /// count for Nystrom-style weight vectors).
  int support_size() const { return support_size_; }

  /// Score one mini-batch: out_scores is resized to points.rows() x
  /// num_outputs() and overwritten.  points.rows() may be 0 (empty batch) or
  /// larger than the training set.  Throws std::invalid_argument on a
  /// dimension mismatch.
  void predict_batch(const la::Matrix& points, la::Matrix& out_scores) const;

  /// Multi-RHS solve against the trained operator: X = (K + lambda I)^{-1} B
  /// (see solver::KernelSolver::solve(la::Matrix)).
  using VarianceSolveFn = std::function<la::Matrix(const la::Matrix&)>;

  /// Attach the GP posterior-variance path: `kernel` is the model's bound
  /// (cluster-permuted) training kernel, `solve` the backend multi-RHS
  /// solve.  Both must stay valid for the predictor's remaining lifetime —
  /// use KRRModel::attach_variance, which wires them from the owning model.
  void enable_variance(const kernel::KernelMatrix* kernel,
                       VarianceSolveFn solve);
  bool variance_enabled() const { return variance_kernel_ != nullptr; }

  /// Score one mini-batch and, when out_variance is non-null, also fill
  /// sigma^2(x_i) = k(x_i, x_i) - k_*^T (K + lambda I)^{-1} k_* per point.
  /// Scoring bits are identical to the two-argument overload.  Throws
  /// std::logic_error when variance is requested but no path is attached.
  void predict_batch(const la::Matrix& points, la::Matrix& out_scores,
                     la::Vector* out_variance) const;

  /// Convenience wrapper around predict_batch().
  la::Matrix predict(const la::Matrix& points) const;

  /// Snapshot of the serving counters.  Accumulation is atomic (relaxed),
  /// so concurrent predict_batch() calls on one shared instance are safe;
  /// under concurrency the snapshot is per-field consistent, not a
  /// cross-field transaction.
  PredictStats stats() const;

 private:
  // One fixed-width column tile of the pruned training support.
  struct Tile {
    la::Matrix points;           // t x d
    la::Matrix weights;          // t x c
    std::vector<double> sqnorm;  // ||x_j||^2 per tile row
  };

  // Relaxed-atomic counters so the const serving hot path stays data-race
  // free; copyable so the predictor keeps value semantics.
  struct AtomicStats {
    std::atomic<long> points{0};
    std::atomic<long> batches{0};
    std::atomic<long> kernel_evals{0};
    std::atomic<double> seconds{0.0};

    AtomicStats() = default;
    AtomicStats(const AtomicStats& o) { *this = o; }
    AtomicStats& operator=(const AtomicStats& o) {
      points = o.points.load(std::memory_order_relaxed);
      batches = o.batches.load(std::memory_order_relaxed);
      kernel_evals = o.kernel_evals.load(std::memory_order_relaxed);
      seconds = o.seconds.load(std::memory_order_relaxed);
      return *this;
    }
  };

  la::Vector compute_variance(const la::Matrix& points) const;

  kernel::KernelParams params_;
  PredictOptions opts_;
  int dim_ = 0;
  int num_outputs_ = 0;
  int support_size_ = 0;
  std::vector<Tile> tiles_;
  // Optional variance path (enable_variance): non-owning — the model that
  // attached these must outlive the predictor's variance calls.
  const kernel::KernelMatrix* variance_kernel_ = nullptr;
  VarianceSolveFn variance_solve_;
  mutable AtomicStats stats_;
};

/// Single-RHS convenience: build a one-column predictor over `kernel` and
/// score `points` against the weight vector `w` (same order as
/// kernel.points()).  Collapses the Vector -> n x 1 matrix -> first-column
/// staging that single-output callers (KRRModel::decision_scores,
/// NystromKRR) would otherwise repeat.
la::Vector predict_single(const kernel::KernelMatrix& kernel,
                          const la::Vector& w, const la::Matrix& points,
                          PredictOptions opts = {});

}  // namespace khss::predict
