#pragma once
// HSS construction for symmetric matrices (K + lambda I).
//
// Two builders are provided; both compress the row side only and store one
// basis per node (hss_matrix.hpp: V = U, B10 = B01^T):
//
//  * build_hss_direct: deterministic ID compression of explicitly extracted
//    off-diagonal "hanger" blocks.  O(n^2 r) work — the reference
//    implementation used by tests and small problems.
//
//  * build_hss_randomized: the algorithm of [Martinsson 2011] implemented in
//    STRUMPACK and described in Section 3.1 of the paper.  Requires only
//      - an element extraction callback (selected submatrices), and
//      - a black-box product S = A*R against a random block
//    i.e. the paper's "partially matrix-free interface".  Rank detection is
//    adaptive: if any node's interpolative rank comes too close to the
//    sample count, the construction restarts with twice the samples
//    (geometric cost, deterministic given the seed).
//
// The sampler callback is where the paper's H-matrix acceleration plugs in:
// pass KernelMatrix::multiply for the honest O(n^2) dense sampling, or
// HMatrix::multiply for the fast structured sampling (Section 3.2 / Table 4).
//
// Two leftovers of the removed non-symmetric build remain only because the
// repository benchmark (perfbench/layers.cpp) still spells them:
// HSSOptions::symmetric, which must be true, and build_hss_randomized's
// `sample_transpose`, which must be empty.  Both are checked preconditions.

#include <cstdint>
#include <functional>

#include "cluster/tree.hpp"
#include "hss/hss_matrix.hpp"
#include "la/matrix.hpp"

namespace khss::hss {

/// Dense submatrix A(rows, cols) in the matrix's own (permuted) indexing.
using ExtractFn = std::function<la::Matrix(const std::vector<int>&,
                                           const std::vector<int>&)>;

/// S = A * R (R is n x s).
using SampleFn = std::function<la::Matrix(const la::Matrix&)>;

struct HSSOptions {
  double rtol = 1e-2;      // relative ID truncation tolerance
  double atol = 1e-12;     // absolute floor
  int max_rank = 0;        // 0 = unbounded (rank capped by sampling only)
  int init_samples = 64;   // randomized: initial sample columns
  int oversampling = 10;   // randomized: required rank head-room
  int max_restarts = 6;    // randomized: sample-doubling budget
  bool symmetric = true;   // must stay true (see the header comment)
  std::uint64_t seed = 7;
};

/// Reference builder: explicit hangers + ID.
HSSMatrix build_hss_direct(const cluster::ClusterTree& tree,
                           const ExtractFn& extract, const HSSOptions& opts);

/// Randomized builder.  `sample_transpose` must be empty.
HSSMatrix build_hss_randomized(const cluster::ClusterTree& tree,
                               const ExtractFn& extract,
                               const SampleFn& sample,
                               const SampleFn& sample_transpose,
                               const HSSOptions& opts);

/// Convenience: compress an explicit dense matrix (tests, small problems).
/// Throws std::invalid_argument naming the first (i, j) with
/// A(i, j) != A(j, i): only exactly symmetric matrices are accepted.
HSSMatrix build_hss_from_dense(const la::Matrix& a,
                               const cluster::ClusterTree& tree,
                               const HSSOptions& opts, bool randomized = true);

}  // namespace khss::hss
