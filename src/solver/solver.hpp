#pragma once
// Pluggable solver backends for the regularized kernel system
//   (K + lambda I) w = y.
//
// The paper's central exercise is comparing solver *pipelines* for this one
// system: exact dense Cholesky, direct and randomized HSS + ULV,
// H-accelerated sampling, the INV-ASKIT-style HODLR + Sherman-Morrison-
// Woodbury comparator (Section 1.2), and the globally-low-rank Nystrom
// baseline.  Every pipeline is a KernelSolver here, created through a
// string-keyed registry, so any bench, example or tuner run can sweep all of
// them through the same KRRModel path — no per-backend branching above this
// layer.
//
// Lifecycle (driven by krr::KRRModel, but usable standalone):
//   1. compress(kernel, tree)  — build the backend's representation of
//      K + lambda I over the already clustered/permuted operator.
//   2. factor()                — factor it; one factorization serves many
//      right-hand sides (one-vs-all classification, lambda retuning).
//   3. solve(b)                — x = (K + lambda I)^{-1} b in permuted order.
//   4. set_lambda(l); factor() — diagonal update without recompression where
//      the format allows (paper Section 5.3).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/tree.hpp"
#include "hmat/hmatrix.hpp"
#include "kernel/kernel.hpp"
#include "la/matrix.hpp"
#include "serialize/codec.hpp"

namespace khss::hss {
class HSSMatrix;
}

namespace khss::solver {

enum class SolverBackend {
  kDenseExact,      // full K + Cholesky (the paper's exact reference)
  kHSSDirect,       // deterministic ID-based HSS + ULV
  kHSSRandomDense,  // randomized HSS, dense O(n^2) sampling + ULV
  kHSSRandomH,      // randomized HSS, H-matrix fast sampling + ULV
                    // (the paper's headline pipeline)
  /// The paper's stated future work (Section 6): keep the H matrix as the
  /// operator and use a *loose-tolerance* HSS ULV factorization as a
  /// preconditioner for conjugate gradients.
  kIterativeHSSPrecond,
  /// HODLR factored with Sherman-Morrison-Woodbury — the INV-ASKIT approach
  /// the paper contrasts itself with (Section 1.2 item 2).
  kHODLR_SMW,
  /// Globally-low-rank Nystrom landmarks (Section 1.2 related work).
  kNystrom,
};

/// Canonical registry name of a backend ("dense", "hss-rand-h", ...).
std::string backend_name(SolverBackend b);

/// Inverse of backend_name(); also accepts the documented aliases
/// ("hss-random-h", "smw", ...).  Throws std::invalid_argument naming the
/// offending string and listing every registered backend.
SolverBackend backend_from_name(const std::string& name);

/// CLI convenience for benches/examples: like backend_from_name(), but
/// prints the error (which lists the registered backends) to stderr and
/// exits with status 2 instead of throwing out of main.
SolverBackend backend_from_name_cli(const std::string& name);

/// Every registered backend, in registration order.
const std::vector<SolverBackend>& all_backends();

/// Canonical names of every registered backend (CLI help, error messages).
std::vector<std::string> backend_names();

/// Backend-independent knobs plus the per-format ones; each solver reads the
/// fields it understands and ignores the rest, so one options struct can
/// drive a sweep over every backend.
struct SolverOptions {
  double lambda = 1.0;

  // Hierarchical compression (HSS / HODLR / H).
  double rtol = 1e-2;  // relative compression tolerance
  int max_rank = 0;    // 0 = tolerance-driven
  int hss_init_samples = 64;
  /// kHSSRandomH / kIterativeHSSPrecond only.  hmatrix.rtol <= 0 (the
  /// default) means "track rtol": the H matrix only has to be as accurate as
  /// the HSS approximation it feeds samples to.
  hmat::HOptions hmatrix{.rtol = 0.0};
  std::uint64_t seed = 42;

  // kIterativeHSSPrecond: the preconditioner is an HSS factorization at
  // `precond_rtol` (much looser than a direct solve would need); PCG
  // iterates on the H operator until `iterative_rtol`.
  double precond_rtol = 0.3;
  double iterative_rtol = 1e-8;
  int iterative_max_iterations = 200;

  // kNystrom: landmark count (clamped to n at compress time).
  int nystrom_landmarks = 256;
};

/// Phase timings + compression statistics, mirroring the rows of the paper's
/// Table 4 and the metrics of Section 4.2.  Generic across backends: the
/// table printers read compress/factor/solve times, the compressed footprint
/// and the maximum off-diagonal rank without knowing the format; the
/// HSS-specific sampling detail stays zero elsewhere.
struct SolverStats {
  double cluster_seconds = 0.0;  // filled by KRRModel (step 0, backend-free)
  double compress_seconds = 0.0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;

  /// Memory of the compressed operator: the dense matrix (kDenseExact), HSS
  /// generators, HODLR blocks, or the Nystrom landmark representation.
  std::size_t compressed_memory_bytes = 0;
  std::size_t factor_memory_bytes = 0;
  /// Maximum off-diagonal rank (hierarchical formats) or the landmark count
  /// (Nystrom) — the paper's "maximum rank" metric.
  int max_rank = 0;
  int solve_iterations = 0;  // iterative backends only
  /// Iterative backends: whether the last solve reached its tolerance, and
  /// the relative residual it stopped at.  Direct backends leave the
  /// defaults (converged, residual 0).
  bool solve_converged = true;
  double solve_relative_residual = 0.0;

  // Hierarchical factor/solve phase detail (ULV-based backends only; zero
  // elsewhere).  Factor splits into the level-parallel elimination sweep and
  // the dense root LU; solve into the bottom-up forward sweep and the
  // top-down back-substitution.  bench_table4_breakdown and bench_micro_hier
  // print these rows (BENCH_hier.json trajectory).
  double factor_tree_seconds = 0.0;
  double factor_root_seconds = 0.0;
  double solve_forward_seconds = 0.0;
  double solve_backward_seconds = 0.0;

  // HSS randomized-construction detail (kHSS* backends only).
  double h_construction_seconds = 0.0;
  double sampling_seconds = 0.0;  // portion of compress spent in A*R products
  std::size_t h_memory_bytes = 0;
  int samples = 0;   // final sample count
  int restarts = 0;  // sample-extension rounds after the first
};

/// One solver pipeline for (K + lambda I) w = y.  Implementations live in
/// src/solver/*_solver.*; instances come from solver::make().
class KernelSolver {
 public:
  virtual ~KernelSolver() = default;

  /// Build the compressed representation of K + lambda I over the (already
  /// clustered/permuted) kernel operator.  `kernel` and `tree` must outlive
  /// the solver.
  virtual void compress(const kernel::KernelMatrix& kernel,
                        const cluster::ClusterTree& tree) = 0;

  /// Factor the compressed operator.  Called after compress() and again
  /// after set_lambda(); solves reuse one factorization across right-hand
  /// sides.
  virtual void factor() = 0;

  /// Solve (K + lambda I) x = b (permuted order, b.size() == n).
  virtual la::Vector solve(const la::Vector& b) = 0;

  /// Multi-RHS solve: X = (K + lambda I)^{-1} B, one column per right-hand
  /// side.  The default loops solve() over the columns, so the result is
  /// trivially identical to solving each column alone; backends with native
  /// multi-RHS factorizations (dense Cholesky, ULV) override with a blocked
  /// path whose RHS-split invariance keeps the same guarantee — the GP
  /// variance path relies on it to coalesce cross-kernel panels freely.
  virtual la::Matrix solve(const la::Matrix& b);

  /// Update the regularization.  The caller keeps the KernelMatrix's lambda
  /// in sync; backends adjust their compressed diagonal without
  /// recompressing where the format allows.  Call factor() afterwards.
  virtual void set_lambda(double lambda) = 0;

  /// Apply the operator this backend actually solves against (residual
  /// diagnostics): the exact kernel for kDenseExact/kNystrom, the H operator
  /// for kIterativeHSSPrecond, the compressed format otherwise.
  virtual la::Vector matvec(const la::Vector& x) const = 0;

  virtual const SolverStats& stats() const = 0;
  virtual SolverBackend backend() const = 0;

  /// The HSS form of the operator when this backend builds one (the scaling
  /// benches re-factor it at several thread counts); null otherwise.
  virtual const hss::HSSMatrix* hss_matrix() const { return nullptr; }

  /// Persist the fitted (compressed + factored) state into `w` so
  /// load_state() can reconstruct it without refitting.  The encoding begins
  /// with the backend's canonical name, which load_state() verifies — an
  /// artifact fed to the wrong backend fails loudly instead of
  /// misinterpreting bytes.  Called after compress()+factor().  Backends
  /// that do not support persistence throw std::logic_error (the default).
  virtual void save_state(serialize::ByteWriter& w) const;

  /// Reconstruct the fitted state saved by save_state() of the SAME backend.
  /// `kernel` and `tree` play the role compress() gives them (they must
  /// outlive the solver and hold the permuted training points the state was
  /// saved against).  Throws serialize::SerializeError on any mismatch; the
  /// solver is left unusable on failure, never half-loaded into a valid-
  /// looking state.
  virtual void load_state(serialize::ByteReader& r,
                          const kernel::KernelMatrix& kernel,
                          const cluster::ClusterTree& tree);
};

using SolverFactory =
    std::function<std::unique_ptr<KernelSolver>(const SolverOptions&)>;

/// Register a backend under its canonical name plus optional aliases.  The
/// built-in backends self-register on first registry use; extensions may add
/// their own (with a distinct enum tag) before calling make().
void register_backend(SolverBackend backend, const std::string& name,
                      SolverFactory factory,
                      const std::vector<std::string>& aliases = {});

/// Factory: instantiate a registered backend.  The string overload accepts
/// canonical names and aliases and throws std::invalid_argument (listing the
/// valid names) on unknown input.
std::unique_ptr<KernelSolver> make(SolverBackend backend,
                                   const SolverOptions& opts = {});
std::unique_ptr<KernelSolver> make(const std::string& name,
                                   const SolverOptions& opts = {});

/// Shared plumbing for the built-in solvers: operator binding, options and
/// stats storage, and the n x 1 matvec helper.
class SolverBase : public KernelSolver {
 public:
  SolverBase(SolverBackend backend, SolverOptions opts)
      : backend_(backend), opts_(std::move(opts)) {}

  const SolverStats& stats() const override { return stats_; }
  SolverBackend backend() const override { return backend_; }
  double lambda() const { return opts_.lambda; }

 protected:
  void bind(const kernel::KernelMatrix& kernel,
            const cluster::ClusterTree& tree) {
    kernel_ = &kernel;
    tree_ = &tree;
  }
  int n() const { return kernel_ ? kernel_->n() : 0; }

  /// y = M x for a Matrix-only matmat interface.
  static la::Vector apply_columnwise(
      const std::function<la::Matrix(const la::Matrix&)>& matmat,
      const la::Vector& x);

  /// save_state()/load_state() framing shared by the built-in backends: the
  /// state payload opens with the backend's canonical name so a wrong-backend
  /// artifact is detected before any bytes are misread.
  void write_state_tag(serialize::ByteWriter& w) const;
  void check_state_tag(serialize::ByteReader& r) const;

  SolverBackend backend_;
  SolverOptions opts_;
  SolverStats stats_;
  const kernel::KernelMatrix* kernel_ = nullptr;
  const cluster::ClusterTree* tree_ = nullptr;
};

}  // namespace khss::solver
