#pragma once
// H-matrix with strong admissibility (Section 3.2 of the paper).
//
// The block cluster tree is built over one ClusterTree used for both rows and
// columns (the kernel matrix is symmetric).  A block (a, b) is admissible when
//   min(diam(a), diam(b)) <= eta * dist(a, b)
// with diam/dist computed from the per-node centroid/radius summaries — a
// geometry test that works in any ambient dimension, unlike grid-based FMM
// partitions (the paper notes FMM-style methods only work in low dimension).
//
// Admissible blocks are compressed with partial-pivoted ACA (+ optional SVD
// recompression); small inadmissible blocks are stored dense.  The role of
// this format in the pipeline is exactly the paper's: a quasi-linear-cost
// *sampling engine* — multiply() implements the fast (K + lambda I) * X
// product that accelerates the randomized HSS construction; the HSS format
// then provides the cheap ULV factorization/solve that H lacks.

#include <cstdint>
#include <vector>

#include "cluster/tree.hpp"
#include "kernel/kernel.hpp"
#include "la/matrix.hpp"
#include "hmat/aca.hpp"

namespace khss::hmat {

struct HOptions {
  double eta = 2.0;        // admissibility parameter
  double rtol = 1e-2;      // ACA relative tolerance
  int max_rank = 0;        // 0 => adaptive cap min(m,n)/2 per block
  bool recompress = true;  // SVD recompression of ACA factors
  int dense_block_cutoff = 64;  // inadmissible blocks <= this go dense

  // "Hybrid ACA" (paper Section 3.2): in high dimension the ball-distance
  // admissibility test rarely fires (clusters overlap), yet off-diagonal
  // kernel blocks still have fast singular value decay.  When enabled, large
  // geometrically-inadmissible off-diagonal blocks are *speculatively*
  // compressed with a bounded-rank ACA; if it converges the factorization is
  // kept, otherwise the block is subdivided as usual.  Correctness is never
  // at stake — acceptance is decided by the ACA tolerance itself.
  bool speculative = true;
  int speculative_rank_cap = 96;
};

struct HBlock {
  int row_lo, row_hi;  // global index ranges (permuted order)
  int col_lo, col_hi;
  bool low_rank;
  LowRank lr;       // when low_rank
  la::Matrix dense; // otherwise
};

struct HStats {
  std::size_t memory_bytes = 0;
  int num_blocks = 0;
  int num_lowrank_blocks = 0;
  int num_dense_blocks = 0;
  int max_block_rank = 0;
  double build_seconds = 0.0;
};

class HMatrix {
 public:
  /// Compress kernel + lambda*I over the cluster tree.  The KernelMatrix must
  /// hold the *permuted* points of `tree` (i.e. row i of kernel.points() is
  /// the point at permuted position i).
  HMatrix(const kernel::KernelMatrix& kernel, const cluster::ClusterTree& tree,
          const HOptions& opts = {});

  /// Persistence (serialize::read_hmatrix): reassemble from stored blocks
  /// WITHOUT recompressing.  Block extents are validated against n; stats
  /// are recomputed from the blocks (build_seconds stays 0 — nothing was
  /// built).
  HMatrix(int n, double lambda, std::vector<HBlock> blocks);

  int n() const { return n_; }

  /// Y = (K_H + lambda I) X.  OpenMP-parallel over fixed row chunks on the
  /// packed GEMM core; a column of Y has the same bits whatever the other
  /// columns of X and the thread count.
  la::Matrix multiply(const la::Matrix& x) const;

  /// y = (K_H + lambda I) x.
  la::Vector multiply(const la::Vector& x) const;

  /// Replace the diagonal shift baked into the dense diagonal blocks.
  void set_lambda(double lambda);
  double lambda() const { return lambda_; }

  const HStats& stats() const { return stats_; }
  const std::vector<HBlock>& blocks() const { return blocks_; }

  /// Reconstruct the dense matrix (tests; small n only).
  la::Matrix dense() const;

 private:
  void build(const kernel::KernelMatrix& kernel,
             const cluster::ClusterTree& tree, const HOptions& opts);

  int n_ = 0;
  double lambda_ = 0.0;
  std::vector<HBlock> blocks_;
  HStats stats_;
};

}  // namespace khss::hmat
