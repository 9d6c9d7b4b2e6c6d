#pragma once
// Hierarchical cluster tree = HSS tree + permutation.
//
// Every preprocessing method in the paper (Section 4) produces the same two
// artifacts: a symmetric permutation of the kernel matrix (i.e. a reordering
// of the input points) and a binary tree over contiguous index ranges of the
// reordered points.  The tree doubles as the HSS partition tree (Figure 3 of
// the paper) and as the cluster tree of the H-matrix block partitioning; the
// per-node centroid/radius summaries feed the H-matrix admissibility test.

#include <vector>

#include "la/matrix.hpp"

namespace khss::cluster {

struct ClusterNode {
  int lo = 0, hi = 0;   // index range [lo, hi) in *permuted* order
  int left = -1;        // child node ids; -1 for leaves
  int right = -1;
  int parent = -1;
  std::vector<double> centroid;  // geometric summary of the node's points
  double radius = 0.0;           // max distance from centroid to a point

  int size() const { return hi - lo; }
  bool is_leaf() const { return left < 0; }
};

class ClusterTree {
 public:
  ClusterTree() = default;
  ClusterTree(std::vector<ClusterNode> nodes, std::vector<int> perm,
              int leaf_size);

  const std::vector<ClusterNode>& nodes() const { return nodes_; }
  const ClusterNode& node(int id) const { return nodes_[id]; }
  int root() const { return 0; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_points() const { return static_cast<int>(perm_.size()); }
  int leaf_size() const { return leaf_size_; }

  /// perm()[i] = original index of the point at permuted position i.
  const std::vector<int>& perm() const { return perm_; }
  /// iperm()[orig] = permuted position of original index orig.
  const std::vector<int>& iperm() const { return iperm_; }

  /// Node ids in postorder (children before parents) — the traversal order
  /// of the bottom-up HSS construction and ULV factorization.
  const std::vector<int>& postorder() const { return postorder_; }

  /// Leaf node ids, left to right.
  std::vector<int> leaves() const;

  int depth() const;
  int num_leaves() const;
  int max_leaf_points() const;

  /// Structural invariants (ranges partition exactly, parent/child links
  /// consistent, perm is a permutation).  Used by tests; cheap.
  bool validate() const;

 private:
  std::vector<ClusterNode> nodes_;
  std::vector<int> perm_, iperm_;
  std::vector<int> postorder_;
  int leaf_size_ = 0;
};

/// Group node ids by tree depth, deepest level first.  Nodes on one level
/// are pairwise independent in any bottom-up (or, reversed, top-down) sweep:
/// this is the shared schedule of the level-synchronous parallel passes —
/// HSS construction, ULV factorization/solve, and the HSS matvec sweeps.
/// `parent[id]` is the parent node id (ignored for id 0, the root).
std::vector<std::vector<int>> levels_bottom_up(const std::vector<int>& parent);

/// Same, computed from any node vector with `left`/`right`/`is_leaf()`
/// members (ClusterNode, hss::HSSNode, hodlr Node, ...).
template <typename Node>
std::vector<std::vector<int>> levels_bottom_up(const std::vector<Node>& nodes) {
  std::vector<int> parent(nodes.size(), -1);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].is_leaf()) continue;
    parent[nodes[id].left] = static_cast<int>(id);
    parent[nodes[id].right] = static_cast<int>(id);
  }
  return levels_bottom_up(parent);
}

/// Compute centroid/radius for every node from the (already permuted) points.
void annotate_geometry(std::vector<ClusterNode>& nodes,
                       const la::Matrix& permuted_points);

/// Same, reading rows through `perm` (row i of the permuted set is
/// points.row(perm[i])) so callers never materialize a permuted copy of the
/// full n×d dataset.  Per-node arithmetic is identical to the overload above.
void annotate_geometry(std::vector<ClusterNode>& nodes,
                       const la::Matrix& points, const std::vector<int>& perm);

/// Apply a permutation to dataset rows: out.row(i) = in.row(perm[i]).
la::Matrix apply_row_permutation(const la::Matrix& points,
                                 const std::vector<int>& perm);

}  // namespace khss::cluster
