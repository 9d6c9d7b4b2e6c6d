#pragma once
// Kernel functions and the (implicit) kernel matrix.
//
// KernelMatrix is the "partially matrix-free interface" of the paper
// (Section 1.1): the HSS construction never forms K — it only needs
//   (a) selected elements  K(i, j)            -> entry() / extract()
//       and whole rows     K(i, lo:hi)        -> row_panel()
//   (b) products           (K + lambda I) X   -> multiply()
// The dense multiply here is the honest O(n^2 (d+s)) sampling path; the
// H-matrix module provides the fast sampling alternative the paper builds.
//
// The Gaussian kernel (Eq. 1.1 of the paper) is the primary citizen; the
// rest of the zoo (Laplacian, polynomial, Matérn 3/2 and 5/2, dot-product,
// and sum/product composites) rides the same contract: every family
// evaluates from inner products and squared norms alone, so tile evaluation
// reduces to a GEMM plus an elementwise transform regardless of which
// kernel — or combination of kernels — is active.  Families live in a
// registry (kernel.cpp): kernel_from_products() is the per-element reference
// and kernel_tile_from_products() (kernel_tile.cpp) the vectorized tile form
// every bulk path uses.  Nothing outside src/kernel/ may branch on
// KernelType (enforced by tools/lint_khss.py, rule kernel-type-switch).

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace khss::kernel {

/// Thrown when a KernelMatrix operation would push the element-evaluation
/// count past the configured budget (see KernelMatrix::set_eval_budget).
class EvalBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Kernel families.  The first three are the original zoo and their
/// numeric values are frozen into the .khss wire encoding — append only.
/// kSum/kProduct are composites: they evaluate their `terms` recursively
/// (weighted sum / product), which preserves the GEMM-panel contract
/// because every leaf still reads only (dot, ||x||^2, ||y||^2).
enum class KernelType {
  kGaussian,
  kLaplacian,
  kPolynomial,
  kMatern32,  // Matérn nu = 3/2
  kMatern52,  // Matérn nu = 5/2
  kDot,       // linear kernel x.y / h^2
  kSum,       // weighted sum of `terms`
  kProduct,   // product of (weighted) `terms`
};

/// Number of registered kernel families (KernelType values are contiguous
/// from 0); the serialization layer uses this to reject unknown tags.
inline constexpr int kNumKernelTypes = 8;

struct KernelParams {
  KernelType type = KernelType::kGaussian;
  double h = 1.0;      // bandwidth / scale (all atom families)
  int degree = 2;      // polynomial only
  double coef0 = 1.0;  // polynomial only
  // Fields below are appended so existing aggregate initializers
  // ({type, h, degree, coef0}) keep meaning exactly what they meant.
  double weight = 1.0;             // term weight inside a composite
  std::vector<KernelParams> terms;  // kSum / kProduct children
};

std::string kernel_name(KernelType t);

/// True for the composite families (kSum/kProduct) that evaluate `terms`.
bool kernel_is_composite(KernelType t);

/// k(x, y) evaluated from inner products: dot_xy = x . y, nx = ||x||^2,
/// ny = ||y||^2.  Every kernel family (composites included) reduces to this
/// form, which is what lets tile evaluation run as a GEMM plus an
/// elementwise transform.  This is the per-element reference (std::exp),
/// used by KernelMatrix::entry() and row_panel(), cross_times_vector and
/// the tests; the bulk paths run kernel_tile_from_products below.
/// Dispatches through the family registry in kernel.cpp.
double kernel_from_products(const KernelParams& params, double dot_xy,
                            double nx, double ny);

/// Tile form of kernel_from_products over a row-major tile with leading
/// dimension ld: g[i*ld + j] <- k(g[i*ld + j], nx[i], ny[j]) for i < rows,
/// j < cols.  Every bulk path (KernelMatrix::extract/dense/multiply/cross
/// and predict::BatchPredictor) goes through it.  The family is picked once
/// per tile and exp runs vectorized (kernel_tile.cpp, AVX-512 / AVX2+FMA /
/// scalar tiers chosen once per process from the host CPU).  Contract:
///   - each family builds its exp argument exactly as kernel_from_products
///     does, so results differ from it only inside exp, by at most 1 ulp
///     of exp; families without exp (dot, polynomial) match it bit for bit;
///   - an element's bits depend only on its (g, nx, ny): not on its
///     position in the tile, the tile shape, the caller, the thread count
///     or the ISA tier (every tier gives the same bits).
void kernel_tile_from_products(const KernelParams& params, int rows, int cols,
                               double* g, int ld, const double* nx,
                               const double* ny);

namespace detail {

/// ISA tiers of the tile transform this host can run, best first: a subset
/// of "avx512", "avx2", "scalar" (always last).
std::vector<std::string> supported_tile_isas();

/// Test entry: kernel_tile_from_products on a named tier (an unknown or
/// unsupported name runs the best tier), so tests can pin every tier the
/// host supports against the scalar one.
void kernel_tile_from_products_with(const std::string& isa,
                                    const KernelParams& params, int rows,
                                    int cols, double* g, int ld,
                                    const double* nx, const double* ny);

}  // namespace detail

/// Symmetric kernel matrix K + lambda*I over a fixed point set, evaluated
/// lazily.  Points are stored in the order given (callers pass the
/// cluster-permuted points, making this the *reordered* kernel matrix).
class KernelMatrix {
 public:
  KernelMatrix(la::Matrix points, KernelParams params, double lambda = 0.0);

  int n() const { return points_.rows(); }
  int dim() const { return points_.cols(); }
  const la::Matrix& points() const { return points_; }
  const KernelParams& params() const { return params_; }

  double lambda() const { return lambda_; }
  /// O(1): only the implicit diagonal shift changes (paper Section 5.3 —
  /// retuning lambda does not require recompression).
  void set_lambda(double lambda) { lambda_ = lambda; }

  /// K(i, j) + lambda * [i == j].
  double entry(int i, int j) const;

  /// out[j - lo] = entry(i, j) for j in [lo, hi), bit for bit: every dot
  /// product is summed in entry()'s order (four at a time, so the add
  /// chains overlap) and transformed by the same std::exp reference.
  /// entry(i, j) and entry(j, i) are bitwise equal in every family, so the
  /// panel is also column i of K(lo:hi, :).  ACA reads whole block rows
  /// and columns through it.
  void row_panel(int i, int lo, int hi, double* out) const;

  /// Dense submatrix K(rows, cols) (+lambda on coincident indices).
  la::Matrix extract(const std::vector<int>& rows,
                     const std::vector<int>& cols) const;

  /// Full dense matrix (small n only; used by tests and the exact baseline).
  la::Matrix dense() const;

  /// S = (K + lambda I) * X, blocked and OpenMP-parallel, without forming K.
  la::Matrix multiply(const la::Matrix& x) const;

  /// y = K(other, train) * w  — prediction scores, no lambda, never stores
  /// the m x n cross matrix.
  la::Vector cross_times_vector(const la::Matrix& other_points,
                                const la::Vector& w) const;

  /// Dense cross-kernel block K(other, train) (small sizes; tests/examples).
  la::Matrix cross(const la::Matrix& other_points) const;

  /// Number of kernel element evaluations since construction: the bulk
  /// operations and every row_panel() (so ACA's reads count), but not
  /// single entry() calls, which stay free of synchronization.  Profiling
  /// aid for the partially matrix-free interface.  Relaxed-atomic: one
  /// KernelMatrix may serve concurrent extract()/multiply()/dense() and
  /// row_panel() callers (the H build and the solver and serving layers
  /// share it), so the counter must not be a plain read-modify-write.
  long element_evals() const {
    return element_evals_.load(std::memory_order_relaxed);
  }

  /// Matrix-free guard: cap the total number of counted kernel element
  /// evaluations.  0 (the default) = unlimited.  With a budget below n², any
  /// path that would materialize or sweep a dense n×n object — dense(), the
  /// O(n²·s) sampling multiply(), a full-size extract() — throws
  /// EvalBudgetExceeded before doing the work, which is how bench_scale and
  /// the tests prove the hss-rand-h pipeline stays matrix-free at large n.
  /// Enforcement happens at serial call sites only (bulk operations invoked
  /// inside an OpenMP region still count but defer the throw to the next
  /// serial operation or an explicit check_eval_budget()); budgets are a
  /// debugging/verification device, not a hard security boundary.
  void set_eval_budget(long budget) { eval_budget_ = budget; }
  long eval_budget() const { return eval_budget_; }

  /// Throw EvalBudgetExceeded if the running count has passed the budget.
  /// Call from serial code after parallel phases (e.g. once per solver
  /// stage) to pick up overruns accumulated inside OpenMP regions.
  void check_eval_budget() const;

 private:
  double from_products(double dot_xy, double nx, double ny) const;

  void count_evals(long n) const {
    element_evals_.fetch_add(n, std::memory_order_relaxed);
  }

  // Budget check before a bulk operation adds `incoming` evaluations.
  // No-op inside OpenMP parallel regions (throwing there would terminate).
  void enforce_budget(long incoming) const;

  la::Matrix points_;
  KernelParams params_;
  double lambda_ = 0.0;
  long eval_budget_ = 0;
  std::vector<double> sqnorm_;  // ||x_i||^2 precomputed
  mutable std::atomic<long> element_evals_{0};
};

}  // namespace khss::kernel
