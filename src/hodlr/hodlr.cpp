#include "hodlr/hodlr.hpp"

#include <algorithm>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::hodlr {

HODLRMatrix::HODLRMatrix(const kernel::KernelMatrix& kernel,
                         const cluster::ClusterTree& tree,
                         const HODLROptions& opts) {
  KHSS_REQUIRE(kernel.n() == tree.num_points(),
               "HODLRMatrix: kernel has " << kernel.n()
                   << " points but the cluster tree holds "
                   << tree.num_points());
  util::Timer timer;
  n_ = kernel.n();
  nodes_.resize(tree.num_nodes());
  postorder_ = tree.postorder();

  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& src = tree.node(id);
    nodes_[id].lo = src.lo;
    nodes_[id].hi = src.hi;
    nodes_[id].left = src.left;
    nodes_[id].right = src.right;
  }

  // Leaves and off-diagonal blocks are independent: compress in parallel.
#pragma omp parallel for schedule(dynamic)
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    Node& nd = nodes_[t];
    if (nd.is_leaf()) {
      std::vector<int> idx(nd.size());
      for (int i = 0; i < nd.size(); ++i) idx[i] = nd.lo + i;
      nd.d = kernel.extract(idx, idx);
      continue;
    }
    const Node& a = nodes_[nd.left];
    const Node& b = nodes_[nd.right];
    // Weak admissibility: the full sibling blocks are compressed, so the
    // rank cap must allow whatever rank the tolerance demands.
    hmat::ACAOptions aca_opts;
    aca_opts.rtol = opts.rtol;
    aca_opts.max_rank =
        opts.max_rank > 0 ? opts.max_rank : std::min(a.size(), b.size());
    // ACA first; then validate against a sampled reference and fall back to
    // an exact truncated SVD of the materialized block when ACA missed
    // content or diverged (possible on kernels with a wide dynamic range —
    // its internal convergence estimate only sees the rows it visited).
    auto compress = [&](const Node& r, const Node& c, hmat::LowRank* lr) {
      const hmat::PanelFn f =
          hmat::kernel_panels(kernel, r.lo, r.hi, c.lo, c.hi);
      const bool converged = hmat::aca(r.size(), c.size(), f, aca_opts, lr);
      if (converged && opts.recompress && lr->rank() > 1) {
        hmat::recompress(lr, opts.rtol);
      }
      if (!converged ||
          !hmat::validate_lowrank(r.size(), c.size(), f, *lr,
                                  30.0 * opts.rtol, /*max_probes=*/64)) {
        *lr = hmat::dense_svd_lowrank(r.size(), c.size(), f, opts.rtol);
      }
    };
    compress(a, b, &nd.upper);
    compress(b, a, &nd.lower);
  }

  stats_ = HODLRStats{};
  for (const auto& nd : nodes_) {
    if (nd.is_leaf()) {
      stats_.memory_bytes += nd.d.bytes();
    } else {
      stats_.memory_bytes += nd.upper.bytes() + nd.lower.bytes();
      stats_.max_rank =
          std::max({stats_.max_rank, nd.upper.rank(), nd.lower.rank()});
      stats_.num_blocks += 2;
    }
  }
  stats_.construction_seconds = timer.seconds();
}

HODLRMatrix::HODLRMatrix(int n, std::vector<Node> nodes,
                         std::vector<int> postorder)
    : n_(n), nodes_(std::move(nodes)), postorder_(std::move(postorder)) {
  KHSS_REQUIRE(n_ >= 0, "HODLRMatrix restore: negative n " << n_);
  KHSS_REQUIRE(postorder_.size() == nodes_.size(),
               "HODLRMatrix restore: postorder covers "
                   << postorder_.size() << " nodes but " << nodes_.size()
                   << " were stored");
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    KHSS_REQUIRE(nd.lo >= 0 && nd.hi >= nd.lo && nd.hi <= n_,
                 "HODLRMatrix restore: node " << id << " spans [" << nd.lo
                     << ", " << nd.hi << ") outside [0, " << n_ << ")");
    KHSS_REQUIRE(nd.is_leaf() ||
                     (nd.left >= 0 && nd.right >= 0 &&
                      nd.left < static_cast<int>(nodes_.size()) &&
                      nd.right < static_cast<int>(nodes_.size())),
                 "HODLRMatrix restore: node " << id
                     << " has out-of-range children (" << nd.left << ", "
                     << nd.right << ")");
    if (nd.is_leaf()) {
      KHSS_REQUIRE(nd.d.rows() == nd.size() && nd.d.cols() == nd.size(),
                   "HODLRMatrix restore: leaf " << id << " block is "
                       << nd.d.rows() << " x " << nd.d.cols()
                       << " for a span of " << nd.size());
    }
  }
  stats_ = HODLRStats{};
  for (const auto& nd : nodes_) {
    if (nd.is_leaf()) {
      stats_.memory_bytes += nd.d.bytes();
    } else {
      stats_.memory_bytes += nd.upper.bytes() + nd.lower.bytes();
      stats_.max_rank =
          std::max({stats_.max_rank, nd.upper.rank(), nd.lower.rank()});
      stats_.num_blocks += 2;
    }
  }
}

la::Matrix HODLRMatrix::matmat(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n_, "HODLRMatrix::matmat: x has "
                                   << x.rows() << " rows; expected n = "
                                   << n_);
  const int s = x.cols();
  la::Matrix y(n_, s);
  for (const auto& nd : nodes_) {
    if (nd.is_leaf()) {
      la::Matrix xloc = x.block(nd.lo, 0, nd.size(), s);
      la::Matrix yloc = la::matmul(nd.d, xloc);
      y.add_block(nd.lo, 0, yloc);
      continue;
    }
    const Node& a = nodes_[nd.left];
    const Node& b = nodes_[nd.right];
    if (nd.upper.rank() > 0) {
      la::Matrix xb = x.block(b.lo, 0, b.size(), s);
      la::Matrix t = la::matmul(nd.upper.v, xb, la::Trans::kYes, la::Trans::kNo);
      la::Matrix ya = la::matmul(nd.upper.u, t);
      y.add_block(a.lo, 0, ya);
    }
    if (nd.lower.rank() > 0) {
      la::Matrix xa = x.block(a.lo, 0, a.size(), s);
      la::Matrix t = la::matmul(nd.lower.v, xa, la::Trans::kYes, la::Trans::kNo);
      la::Matrix yb = la::matmul(nd.lower.u, t);
      y.add_block(b.lo, 0, yb);
    }
  }
  return y;
}

la::Vector HODLRMatrix::matvec(const la::Vector& x) const {
  KHSS_REQUIRE(static_cast<int>(x.size()) == n_,
               "HODLRMatrix::matvec: x has " << x.size()
                                             << " entries; expected n = "
                                             << n_);
  la::Matrix xm(n_, 1);
  for (int i = 0; i < n_; ++i) xm(i, 0) = x[i];
  la::Matrix ym = matmat(xm);
  la::Vector y(n_);
  for (int i = 0; i < n_; ++i) y[i] = ym(i, 0);
  return y;
}

la::Matrix HODLRMatrix::dense() const {
  la::Matrix out(n_, n_);
  for (const auto& nd : nodes_) {
    if (nd.is_leaf()) {
      out.set_block(nd.lo, nd.lo, nd.d);
      continue;
    }
    const Node& a = nodes_[nd.left];
    const Node& b = nodes_[nd.right];
    if (nd.upper.rank() > 0) out.set_block(a.lo, b.lo, nd.upper.dense());
    if (nd.lower.rank() > 0) out.set_block(b.lo, a.lo, nd.lower.dense());
  }
  return out;
}

void HODLRMatrix::shift_diagonal(double delta) {
  for (auto& nd : nodes_) {
    if (nd.is_leaf()) nd.d.shift_diagonal(delta);
  }
}

namespace {

// Subtrees below this many points are factored/applied inline: task-spawn
// overhead would swamp the work.  The cutoff keys on the node size only
// (never on thread count or load), so the arithmetic done at every node is
// fixed and results stay bit-identical however OpenMP schedules the tasks.
// Raised from 384 when the packed GEMM core learned to thread internally:
// below ~512 points a node's matmuls sit under the core's flop gate anyway,
// so spawning a task there only buys scheduling overhead, while above it
// the task fan-out (which serializes the inner GEMMs via the in-parallel
// gate) is worth more than one threaded GEMM at a time.
constexpr int kSmwTaskPoints = 512;

}  // namespace

SMWFactorization::SMWFactorization(const HODLRMatrix& hodlr) : hodlr_(hodlr) {
  nf_.resize(hodlr_.nodes().size());
  if (nf_.empty()) return;
  // The two subtrees under any node are independent; factor them as
  // recursive OpenMP tasks.
#pragma omp parallel
#pragma omp single
  factor_node(0);
}

SMWFactorization::SMWFactorization(const HODLRMatrix& hodlr,
                                   std::vector<NodeFactor> nf)
    : hodlr_(hodlr), nf_(std::move(nf)) {
  KHSS_REQUIRE(nf_.size() == hodlr_.nodes().size(),
               "SMWFactorization restore: " << nf_.size()
                   << " node factors for a HODLR matrix with "
                   << hodlr_.nodes().size() << " nodes");
  for (std::size_t id = 0; id < nf_.size(); ++id) {
    const auto& nd = hodlr_.nodes()[id];
    if (nd.is_leaf()) {
      KHSS_REQUIRE(nf_[id].leaf_lu != nullptr,
                   "SMWFactorization restore: leaf " << id
                       << " is missing its LU factor");
    }
  }
}

void SMWFactorization::factor_node(int node_id) {
  const auto& nodes = hodlr_.nodes();
  const auto& nd = nodes[node_id];
  NodeFactor& nf = nf_[node_id];
  if (nd.is_leaf()) {
    nf.leaf_lu = std::make_unique<la::LUFactor>(nd.d);
    return;
  }

#pragma omp task default(shared) if (nodes[nd.left].size() > kSmwTaskPoints)
  factor_node(nd.left);
  factor_node(nd.right);
#pragma omp taskwait

  const auto& a = nodes[nd.left];
  const auto& b = nodes[nd.right];
  const int na = a.size(), nb = b.size();
  const int r1 = nd.upper.rank(), r2 = nd.lower.rank();
  const int m = na + nb;

  // A = blkdiag(A_a, A_b) + W Z^T with
  //   W = [U_up  0   ;  0  U_lo],   Z = [0  V_lo ;  V_up  0].
  la::Matrix w(m, r1 + r2), z(m, r1 + r2);
  if (r1 > 0) {
    w.set_block(0, 0, nd.upper.u);
    z.set_block(na, 0, nd.upper.v);
  }
  if (r2 > 0) {
    w.set_block(na, r1, nd.lower.u);
    z.set_block(0, r1, nd.lower.v);
  }

  // D^{-1} W via the children's (just built) inverses.
  la::Matrix dinv_w = w;
  {
    la::Matrix top = dinv_w.block(0, 0, na, r1 + r2);
    la::Matrix bot = dinv_w.block(na, 0, nb, r1 + r2);
#pragma omp task default(shared) if (na > kSmwTaskPoints)
    apply_inverse(nd.left, &top);
    apply_inverse(nd.right, &bot);
#pragma omp taskwait
    dinv_w.set_block(0, 0, top);
    dinv_w.set_block(na, 0, bot);
  }

  // Capacitance C = I + Z^T D^{-1} W.
  la::Matrix cap = la::matmul(z, dinv_w, la::Trans::kYes, la::Trans::kNo);
  cap.shift_diagonal(1.0);
  nf.cap_lu = std::make_unique<la::LUFactor>(std::move(cap));
  nf.dinv_w = std::move(dinv_w);
  nf.z = std::move(z);
}

void SMWFactorization::apply_inverse(int node_id, la::Matrix* b) const {
  const auto& nd = hodlr_.nodes()[node_id];
  const NodeFactor& nf = nf_[node_id];
  KHSS_ASSERT_DBG(b->rows() == nd.size());

  if (nd.is_leaf()) {
    nf.leaf_lu->solve_inplace(*b);
    return;
  }
  const auto& a = hodlr_.nodes()[nd.left];
  const int na = a.size();
  const int nb = nd.size() - na;
  const int s = b->cols();

  // b1 = D^{-1} b (recursively on the children; the halves are disjoint
  // copies, so they run as independent tasks).
  {
    la::Matrix top = b->block(0, 0, na, s);
    la::Matrix bot = b->block(na, 0, nb, s);
#pragma omp task default(shared) if (na > kSmwTaskPoints)
    apply_inverse(nd.left, &top);
    apply_inverse(nd.right, &bot);
#pragma omp taskwait
    b->set_block(0, 0, top);
    b->set_block(na, 0, bot);
  }
  if (nf.z.cols() == 0) return;  // no off-diagonal coupling

  // b -= D^{-1}W (I + Z^T D^{-1}W)^{-1} Z^T b1.
  la::Matrix t =
      la::matmul_rhs_invariant(nf.z, *b, la::Trans::kYes, la::Trans::kNo);
  nf.cap_lu->solve_inplace(t);
  la::gemm_rhs_invariant(-1.0, nf.dinv_w, la::Trans::kNo, t, la::Trans::kNo,
                         1.0, *b);
}

la::Matrix SMWFactorization::solve(const la::Matrix& b) const {
  KHSS_REQUIRE(b.rows() == hodlr_.n(),
               "SMWFactorization::solve: right-hand side has "
                   << b.rows() << " rows; the factored matrix has n = "
                   << hodlr_.n());
  la::Matrix x = b;
  // Task region for the recursive descent; a no-op team of one when called
  // from inside an enclosing parallel region.
#pragma omp parallel
#pragma omp single
  apply_inverse(0, &x);
  return x;
}

la::Vector SMWFactorization::solve(const la::Vector& b) const {
  KHSS_REQUIRE(static_cast<int>(b.size()) == hodlr_.n(),
               "SMWFactorization::solve: right-hand side has "
                   << b.size() << " entries; the factored matrix has n = "
                   << hodlr_.n());
  la::Matrix bm(static_cast<int>(b.size()), 1);
  for (std::size_t i = 0; i < b.size(); ++i) bm(static_cast<int>(i), 0) = b[i];
  la::Matrix xm = solve(bm);
  la::Vector x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) x[i] = xm(static_cast<int>(i), 0);
  return x;
}

std::size_t SMWFactorization::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& nf : nf_) {
    total += nf.dinv_w.bytes() + nf.z.bytes();
    if (nf.leaf_lu) {
      total += static_cast<std::size_t>(nf.leaf_lu->n()) * nf.leaf_lu->n() *
               sizeof(double);
    }
    if (nf.cap_lu) {
      total += static_cast<std::size_t>(nf.cap_lu->n()) * nf.cap_lu->n() *
               sizeof(double);
    }
  }
  return total;
}

}  // namespace khss::hodlr
