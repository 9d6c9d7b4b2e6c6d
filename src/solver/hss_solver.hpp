#pragma once
// The HSS family of backends (paper Sections 3 and 5):
//
//   kHSSDirect       — deterministic ID compression of explicit hangers.
//   kHSSRandomDense  — randomized construction, honest O(n^2) sampling.
//   kHSSRandomH      — randomized construction, H-matrix fast sampling
//                      (the paper's headline pipeline, Table 4).
//
// All three factor with ULV and share the O(n) diagonal lambda update.
//
//   kIterativeHSSPrecond (IterativeHSSSolver below) — the paper's Section 6
//   future work: the H matrix stays the operator and a *loose* HSS ULV
//   factorization preconditions conjugate gradients.

#include <memory>

#include "hss/build.hpp"
#include "hss/hss_matrix.hpp"
#include "hss/ulv.hpp"
#include "solver/solver.hpp"

namespace khss::solver {

class HSSSolver : public SolverBase {
 public:
  HSSSolver(SolverBackend backend, SolverOptions opts)
      : SolverBase(backend, std::move(opts)) {}

  void compress(const kernel::KernelMatrix& kernel,
                const cluster::ClusterTree& tree) override;
  void factor() override;
  la::Vector solve(const la::Vector& b) override;
  /// ULV multi-RHS solve; the solve's level sweeps are RHS-split invariant
  /// (only the factor runs a task DAG), so columns match one-at-a-time
  /// solve() calls bit for bit.
  la::Matrix solve(const la::Matrix& b) override;
  void set_lambda(double lambda) override;
  la::Vector matvec(const la::Vector& x) const override;
  const hss::HSSMatrix* hss_matrix() const override { return &hss_; }
  void save_state(serialize::ByteWriter& w) const override;
  void load_state(serialize::ByteReader& r,
                  const kernel::KernelMatrix& kernel,
                  const cluster::ClusterTree& tree) override;

 protected:
  /// The preconditioner variant compresses coarsely; direct solves compress
  /// at the requested tolerance.
  double compression_rtol() const;
  bool needs_hmat() const;

  std::unique_ptr<hmat::HMatrix> hmat_;
  hss::HSSMatrix hss_;
  std::unique_ptr<hss::ULVFactorization> ulv_;
};

/// PCG on the H operator with the loose ULV factorization as M^{-1}.
class IterativeHSSSolver : public HSSSolver {
 public:
  explicit IterativeHSSSolver(SolverOptions opts)
      : HSSSolver(SolverBackend::kIterativeHSSPrecond, std::move(opts)) {}

  la::Vector solve(const la::Vector& b) override;
  /// PCG has no blocked multi-RHS form: fall back to the column loop over
  /// this class's iterative solve (NOT the parent's direct ULV path).
  la::Matrix solve(const la::Matrix& b) override {
    return KernelSolver::solve(b);
  }
  la::Vector matvec(const la::Vector& x) const override;
};

}  // namespace khss::solver
