#pragma once
// Hierarchically Semi-Separable matrix representation (Section 3.1).
//
// The HSS partition tree mirrors the ClusterTree node indexing.  Following
// Figure 2/3 of the paper, a leaf node stores its dense diagonal block D and
// the interpolative basis U; an internal node stores the translation
// operator (the small U~ of the nested basis property) and the coupling
// generator B01 between its left and right children.
//
// The matrices compressed here are symmetric (K + lambda I), so the format
// stores one generator set: the column basis V equals U, the selected
// columns equal the selected rows Jrow, and the right-left coupling B10 is
// B01^T.  Every consumer applies V as U and B10 as B01 transposed; nothing
// else is stored.
//
// The construction used here is ID-based (see rrqr.hpp): bases have an
// identity sub-block at the selected row subset Jrow, and every B01 is
// literally a submatrix  A(Jrow_left, Jrow_right)  of the original matrix —
// the partially matrix-free property the paper highlights: building the
// format needs only a matvec for sampling plus element access.

#include <cstddef>
#include <vector>

#include "cluster/tree.hpp"
#include "la/matrix.hpp"

namespace khss::hss {

struct HSSNode {
  int lo = 0, hi = 0;
  int left = -1, right = -1, parent = -1;

  la::Matrix d;    // leaf only: dense diagonal block
  la::Matrix u;    // leaf: m x ru basis; internal: (ru_l + ru_r) x ru translation
  la::Matrix b01;  // internal: coupling A(Jrow_left, Jrow_right); B10 = B01^T
  std::vector<int> jrow;  // selected global row (= column) indices (size ru)

  bool is_leaf() const { return left < 0; }
  int size() const { return hi - lo; }
  int urank() const { return u.cols(); }
};

struct HSSStats {
  std::size_t memory_bytes = 0;
  int max_rank = 0;
  int num_nodes = 0;
  int num_leaves = 0;
  int levels = 0;
  int samples_used = 0;    // randomized construction: final sample count
  int restarts = 0;        // randomized construction: adaptivity restarts
  double construction_seconds = 0.0;
  double sampling_seconds = 0.0;  // portion spent in A*R products
};

class HSSMatrix {
 public:
  HSSMatrix() = default;
  HSSMatrix(std::vector<HSSNode> nodes, std::vector<int> postorder, int n);

  int n() const { return n_; }
  bool empty() const { return nodes_.empty(); }
  const std::vector<HSSNode>& nodes() const { return nodes_; }
  std::vector<HSSNode>& nodes() { return nodes_; }
  const HSSNode& node(int id) const { return nodes_[id]; }
  int root() const { return 0; }
  const std::vector<int>& postorder() const { return postorder_; }

  /// y = A_hss * x  (up-down sweep; O(r n)).
  la::Vector matvec(const la::Vector& x) const;

  /// Y = A_hss * X for multiple vectors (level-parallel up/down sweeps).
  la::Matrix matmat(const la::Matrix& x) const;

  /// Node ids grouped by tree depth, deepest level first
  /// (cluster::levels_bottom_up): the schedule of the level-parallel
  /// matmat and ULV sweeps.  levels().size() is the tree depth.
  const std::vector<std::vector<int>>& levels() const { return levels_; }

  /// Add delta to every diagonal entry (leaf D blocks): the O(n) lambda
  /// update of Section 5.3 — no recompression needed.
  void shift_diagonal(double delta);

  /// Reconstruct the dense matrix (tests; small n only).
  la::Matrix dense() const;

  /// Memory of all generators (the paper's Table 2 metric).
  std::size_t memory_bytes() const;

  /// Largest off-diagonal rank (the paper's "maximum rank" metric).
  int max_rank() const;

  HSSStats stats() const;

  /// Structural sanity (tests): ranks consistent, tree shape valid.
  bool validate() const;

  // Mutable stats fields filled in by the builders.
  int samples_used_ = 0;
  int restarts_ = 0;
  double construction_seconds_ = 0.0;
  double sampling_seconds_ = 0.0;

 private:
  std::vector<HSSNode> nodes_;
  std::vector<int> postorder_;
  /// cluster::levels_bottom_up over nodes_, computed once at construction
  /// (the tree structure is fixed for the matrix's lifetime).
  std::vector<std::vector<int>> levels_;
  int n_ = 0;
};

/// Build the HSS skeleton (lo/hi/children) from a cluster tree; generators
/// left empty for the builders to fill.
std::vector<HSSNode> skeleton_from_tree(const cluster::ClusterTree& tree);

}  // namespace khss::hss
