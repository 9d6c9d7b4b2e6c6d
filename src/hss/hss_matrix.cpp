#include "hss/hss_matrix.hpp"

#include <algorithm>

#include "la/blas.hpp"
#include "util/contracts.hpp"

namespace khss::hss {

HSSMatrix::HSSMatrix(std::vector<HSSNode> nodes, std::vector<int> postorder,
                     int n)
    : nodes_(std::move(nodes)),
      postorder_(std::move(postorder)),
      levels_(cluster::levels_bottom_up(nodes_)),
      n_(n) {}

std::vector<HSSNode> skeleton_from_tree(const cluster::ClusterTree& tree) {
  std::vector<HSSNode> nodes(tree.num_nodes());
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& src = tree.node(id);
    nodes[id].lo = src.lo;
    nodes[id].hi = src.hi;
    nodes[id].left = src.left;
    nodes[id].right = src.right;
    nodes[id].parent = src.parent;
  }
  return nodes;
}

la::Matrix HSSMatrix::matmat(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n_, "HSSMatrix::matmat: x has "
                                   << x.rows() << " rows; expected n = "
                                   << n_);
  const int s = x.cols();
  la::Matrix y(n_, s);
  if (nodes_.empty()) return y;

  // Per-node work (see DESIGN.md "Parallel hierarchical solve"): a node
  // touches only its own slot and its children's (up sweep), the slot its
  // parent wrote (down sweep), or its own disjoint rows of y (leaf pass) —
  // so the nodes of one level may run in any order and the result is
  // bit-identical for every thread count.  Blocks route through
  // la::gemm_rhs_invariant so matvec() columns match matmat() columns
  // bit-for-bit under any RHS split.
  std::vector<la::Matrix> xt(nodes_.size());  // up: xt[i] = U_i^T x(I_i)
  std::vector<la::Matrix> f(nodes_.size());   // down: U-side inflow at i

  auto up_node = [&](int id) {
    const HSSNode& nd = nodes_[id];
    if (id == root()) return;  // root has no basis
    if (nd.is_leaf()) {
      la::Matrix xloc = x.block(nd.lo, 0, nd.size(), s);
      xt[id] = la::matmul_rhs_invariant(nd.u, xloc, la::Trans::kYes,
                                        la::Trans::kNo);
    } else {
      const int rl = nodes_[nd.left].urank();
      const int rr = nodes_[nd.right].urank();
      la::Matrix stacked(rl + rr, s);
      stacked.set_block(0, 0, xt[nd.left]);
      stacked.set_block(rl, 0, xt[nd.right]);
      xt[id] = la::matmul_rhs_invariant(nd.u, stacked, la::Trans::kYes,
                                        la::Trans::kNo);
    }
  };

  auto down_node = [&](int id) {
    const HSSNode& nd = nodes_[id];
    if (nd.is_leaf()) return;
    const int l = nd.left, r = nd.right;
    la::Matrix fl = la::matmul_rhs_invariant(nd.b01, xt[r]);
    la::Matrix fr = la::matmul_rhs_invariant(nd.b01, xt[l], la::Trans::kYes,
                                             la::Trans::kNo);
    if (id != root() && !f[id].empty()) {
      // Spread the parent's contribution through the translation operator.
      la::Matrix g = la::matmul_rhs_invariant(nd.u, f[id]);
      const int rl = nodes_[l].urank();
      fl.add(g.block(0, 0, rl, s));
      fr.add(g.block(rl, 0, nodes_[r].urank(), s));
    }
    f[l] = std::move(fl);
    f[r] = std::move(fr);
  };

  // Leaves: y(I) = D x(I) + U f.  Leaves own disjoint row ranges of y.
  auto leaf_node = [&](int id) {
    const HSSNode& nd = nodes_[id];
    if (!nd.is_leaf()) return;
    la::Matrix xloc = x.block(nd.lo, 0, nd.size(), s);
    la::Matrix yloc = la::matmul_rhs_invariant(nd.d, xloc);
    if (id != root() && !f[id].empty() && nd.urank() > 0) {
      la::Matrix uf = la::matmul_rhs_invariant(nd.u, f[id]);
      yloc.add(uf);
    }
    y.set_block(nd.lo, 0, yloc);
  };

  // Bottom-up levels, top-down levels, leaf pass, with a barrier per depth.
  for (const auto& level : levels_) {
#pragma omp parallel for schedule(dynamic) if (level.size() > 1)
    for (std::size_t t = 0; t < level.size(); ++t) up_node(level[t]);
  }
  for (auto lit = levels_.rbegin(); lit != levels_.rend(); ++lit) {
    const auto& level = *lit;
#pragma omp parallel for schedule(dynamic) if (level.size() > 1)
    for (std::size_t t = 0; t < level.size(); ++t) down_node(level[t]);
  }
#pragma omp parallel for schedule(dynamic)
  for (std::size_t t = 0; t < postorder_.size(); ++t) leaf_node(postorder_[t]);
  return y;
}

la::Vector HSSMatrix::matvec(const la::Vector& x) const {
  KHSS_REQUIRE(static_cast<int>(x.size()) == n_,
               "HSSMatrix::matvec: x has " << x.size()
                                           << " entries; expected n = " << n_);
  la::Matrix xm(n_, 1);
  for (int i = 0; i < n_; ++i) xm(i, 0) = x[i];
  la::Matrix ym = matmat(xm);
  la::Vector y(n_);
  for (int i = 0; i < n_; ++i) y[i] = ym(i, 0);
  return y;
}

void HSSMatrix::shift_diagonal(double delta) {
  for (auto& nd : nodes_) {
    if (nd.is_leaf()) nd.d.shift_diagonal(delta);
  }
}

la::Matrix HSSMatrix::dense() const {
  la::Matrix out(n_, n_);
  if (nodes_.empty()) return out;

  // Full (non-nested) bases per node, built bottom-up.
  std::vector<la::Matrix> ufull(nodes_.size());
  for (int id : postorder_) {
    const HSSNode& nd = nodes_[id];
    if (nd.is_leaf()) {
      out.set_block(nd.lo, nd.lo, nd.d);
      if (id != root()) ufull[id] = nd.u;
      continue;
    }
    const int l = nd.left, r = nd.right;
    // Cross terms of this node's children: U_l B01 U_r^T and its transpose.
    if (nd.b01.rows() > 0 && ufull[l].cols() > 0 && ufull[r].cols() > 0) {
      la::Matrix t = la::matmul(ufull[l], nd.b01);
      la::Matrix cross = la::matmul(t, ufull[r], la::Trans::kNo, la::Trans::kYes);
      out.set_block(nodes_[l].lo, nodes_[r].lo, cross);
      out.set_block(nodes_[r].lo, nodes_[l].lo, cross.transposed());
    }
    if (id != root()) {
      // Assemble this node's full basis from the children's.
      ufull[id] = la::Matrix(nd.size(), nd.urank());
      const int rl = nodes_[l].urank();
      la::Matrix top = la::matmul(ufull[l], nd.u.block(0, 0, rl, nd.urank()));
      la::Matrix bot = la::matmul(
          ufull[r], nd.u.block(rl, 0, nodes_[r].urank(), nd.urank()));
      ufull[id].set_block(0, 0, top);
      ufull[id].set_block(nodes_[l].size(), 0, bot);
    }
  }
  return out;
}

std::size_t HSSMatrix::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& nd : nodes_) {
    total += nd.d.bytes() + nd.u.bytes() + nd.b01.bytes();
  }
  return total;
}

int HSSMatrix::max_rank() const {
  int r = 0;
  for (const auto& nd : nodes_) r = std::max(r, nd.urank());
  return r;
}

HSSStats HSSMatrix::stats() const {
  HSSStats s;
  s.memory_bytes = memory_bytes();
  s.max_rank = max_rank();
  s.num_nodes = static_cast<int>(nodes_.size());
  for (const auto& nd : nodes_) {
    if (nd.is_leaf()) ++s.num_leaves;
  }
  s.levels = static_cast<int>(levels_.size());
  s.samples_used = samples_used_;
  s.restarts = restarts_;
  s.construction_seconds = construction_seconds_;
  s.sampling_seconds = sampling_seconds_;
  return s;
}

bool HSSMatrix::validate() const {
  if (nodes_.empty()) return n_ == 0;
  if (nodes_[0].lo != 0 || nodes_[0].hi != n_) return false;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const HSSNode& nd = nodes_[id];
    if (nd.is_leaf()) {
      if (nd.d.rows() != nd.size() || nd.d.cols() != nd.size()) return false;
      if (static_cast<int>(id) != root()) {
        if (nd.u.rows() != nd.size()) return false;
        if (static_cast<int>(nd.jrow.size()) != nd.urank()) return false;
      }
      continue;
    }
    const HSSNode& l = nodes_[nd.left];
    const HSSNode& r = nodes_[nd.right];
    if (l.lo != nd.lo || l.hi != r.lo || r.hi != nd.hi) return false;
    if (nd.b01.rows() != l.urank() || nd.b01.cols() != r.urank()) return false;
    if (static_cast<int>(id) != root()) {
      if (nd.u.rows() != l.urank() + r.urank()) return false;
      if (static_cast<int>(nd.jrow.size()) != nd.urank()) return false;
    }
  }
  return true;
}

}  // namespace khss::hss
