#pragma once
// ULV factorization and solve for HSS matrices
// (Chandrasekaran, Gu, Pals 2006 — the algorithm STRUMPACK uses; the paper
// contrasts it with the Sherman-Morrison-Woodbury approach of INV-ASKIT).
//
// The HSS matrix is symmetric (hss_matrix.hpp: V = U and B10 = B01^T are
// implied, not stored); the elimination itself is the general one, because
// after a node's LQ step its rotated column basis Vhat no longer equals its
// Uhat, so the factor state keeps both.
//
// Sketch of the elimination at a node with m unknowns and row basis U (m x r):
//   1. An orthogonal Omega with  Omega U = [0; Uhat]  zeroes the top
//      me = m - r rows of U: in those rows the equations decouple from every
//      other block of the matrix.
//   2. An LQ factorization of the first me rows of Omega*D triangularizes
//      them; forward substitution eliminates me unknowns outright.
//   3. The r "kept" unknowns of the two siblings are merged at the parent
//      into a reduced (r_left + r_right) system, with the coupling blocks
//      Uhat B Vhat^T, and the process repeats up the tree.
//   4. The root's reduced dense system is solved with partially-pivoted LU.
//
// Factorization and solve are separate phases (many right-hand sides reuse
// one factorization), and refactorizing after a diagonal (lambda) update
// needs no recompression — the properties Sections 2 and 5.3 of the paper
// rely on.
//
// Parallel engine (DESIGN.md "Parallel hierarchical solve"): the default
// factor schedule is an OpenMP task DAG — one task per non-root node with
// `task depend` edges from the children's elimination to the parent's
// assembly, so a parent starts the moment its own subtree is done instead
// of waiting for the slowest node of each depth.  The level-synchronous
// sweep over HSSMatrix::levels() is kept as a selectable engine
// (ULVSchedule::kLevelSweep) and remains the shape of both solve phases.
// Either way the work done at a node is a fixed serial computation, which
// makes factorization and solve bit-identical for every thread count and
// across the two schedules.  Multi-RHS solves route their per-node blocks
// through la::gemm_rhs_invariant, so solutions are also bit-identical under
// any column split of the right-hand-side block.

#include <memory>
#include <mutex>
#include <vector>

#include "hss/hss_matrix.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"

namespace khss::hss {

/// Per-phase wall times of the most recent factor/solve (feeds
/// solver::SolverStats and the BENCH_hier.json trajectory).
struct ULVStats {
  double factor_seconds = 0.0;        // whole factorization
  double factor_tree_seconds = 0.0;   // level-parallel elimination sweep
  double factor_root_seconds = 0.0;   // dense root assembly + LU
  double solve_seconds = 0.0;         // last solve, whole
  double solve_forward_seconds = 0.0;   // bottom-up elimination sweep
  double solve_backward_seconds = 0.0;  // top-down back-substitution sweep
  int levels = 0;                     // tree levels swept
  int last_rhs = 0;                   // RHS columns of the last solve
};

/// Parallel schedule of the elimination sweep.  Both produce bit-identical
/// factors (each node's work is a fixed serial sequence; only the order in
/// which independent nodes run differs).
enum class ULVSchedule {
  kLevelSweep,  // barrier per tree depth (legacy engine)
  kTaskDag,     // omp task depend: parent runs as soon as its children do
};

class ULVFactorization {
 public:
  /// Per-node factor state (public for the persistence layer, which stores
  /// and restores it verbatim — see src/serialize/artifacts.hpp).
  struct NodeFactor {
    int m = 0;    // reduced system size at this node
    int me = 0;   // unknowns eliminated here (m - urank)
    la::Matrix omega;  // m x m orthogonal (empty when me == 0)
    la::Matrix dhat;   // m x m: Omega * D * Qlq^T; top-left me x me is L
    la::Matrix qlq;    // m x m orthogonal from the LQ step (empty if me == 0)
    la::Matrix uhat;   // r x r transformed row basis (non-root)
    la::Matrix vhat;   // kept rows of Qlq * V (r x r)
    la::Matrix v1;     // eliminated rows of Qlq * V (me x r)
  };

  /// Factor an HSS matrix.  The HSS matrix must stay alive and unmodified
  /// while this factorization is used (it is referenced during solve).
  explicit ULVFactorization(const HSSMatrix& hss,
                            ULVSchedule schedule = ULVSchedule::kTaskDag);

  /// Reassemble a factorization from persisted per-node state and root LU
  /// WITHOUT refactoring (serialize::read_ulv).  `hss` must be the SAME
  /// matrix the factors were computed from (also restored from the file);
  /// node counts are validated, numeric consistency is the file's checksum's
  /// job.  A null `root_lu` is only valid for an empty factorization.
  ULVFactorization(const HSSMatrix& hss, std::vector<NodeFactor> nf,
                   std::unique_ptr<la::LUFactor> root_lu);

  /// The persisted view of the factor state (serialize::write_ulv).
  const std::vector<NodeFactor>& node_factors() const { return nf_; }
  const la::LUFactor* root_lu() const { return root_lu_.get(); }

  /// Solve A x = b.  Throws std::invalid_argument when b.size() != n.
  la::Vector solve(const la::Vector& b) const;

  /// Solve for multiple right-hand sides (columns of B).  Throws
  /// std::invalid_argument when b.rows() != n.
  la::Matrix solve(const la::Matrix& b) const;

  /// Factor memory footprint in bytes.
  std::size_t memory_bytes() const;

  /// ||A x - b|| / ||b|| for a given solve (diagnostic helper).  Throws
  /// std::invalid_argument when x or b is not of size n.
  double relative_residual(const la::Vector& x, const la::Vector& b) const;

  /// Phase timings of the last factor/solve, as a snapshot.  Solves are
  /// const and safe to issue concurrently on one factorization (the factor
  /// state is read-only after construction); the solve timing fields are
  /// written under a mutex, so concurrent solves last-writer-win on the
  /// snapshot instead of racing (pinned by tests/test_race_stress.cpp).
  ULVStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }

 private:
  void factor();
  /// Elimination sweep over all non-root nodes, one engine per schedule.
  void factor_tree_level_sweep();
  void factor_tree_task_dag();
  /// Reduced (D, U, V) at `id` in the coordinates left over after the
  /// children's eliminations (U/V skipped for the root).  V starts out as
  /// the node's U and differs from it only through the children's rotations.
  void assemble_node(int id, la::Matrix& d, la::Matrix& u,
                     la::Matrix& v) const;
  /// Elimination steps 1-3 at a non-root node with assembled (d, u, v).
  void eliminate_node(int id, la::Matrix d, la::Matrix u, la::Matrix v);

  const HSSMatrix& hss_;
  ULVSchedule schedule_;
  std::vector<NodeFactor> nf_;
  std::unique_ptr<la::LUFactor> root_lu_;
  /// Guards stats_ against concurrent const solves (TSan-found race: the
  /// solve timing fields were plain writes from a const member function).
  mutable std::mutex stats_mutex_;
  mutable ULVStats stats_;
};

}  // namespace khss::hss
