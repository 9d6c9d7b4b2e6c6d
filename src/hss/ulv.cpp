#include "hss/ulv.hpp"

#include <cmath>
#include <mutex>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::hss {

ULVFactorization::ULVFactorization(const HSSMatrix& hss, ULVSchedule schedule)
    : hss_(hss), schedule_(schedule) {
  nf_.resize(hss_.nodes().size());
  stats_.levels = static_cast<int>(hss_.levels().size());
  factor();
}

ULVFactorization::ULVFactorization(const HSSMatrix& hss,
                                   std::vector<NodeFactor> nf,
                                   std::unique_ptr<la::LUFactor> root_lu)
    : hss_(hss),
      schedule_(ULVSchedule::kTaskDag),
      nf_(std::move(nf)),
      root_lu_(std::move(root_lu)) {
  KHSS_REQUIRE(nf_.size() == hss_.nodes().size(),
               "ULVFactorization restore: " << nf_.size()
                   << " node factors for an HSS tree of "
                   << hss_.nodes().size() << " nodes");
  KHSS_REQUIRE(root_lu_ != nullptr || nf_.empty(),
               "ULVFactorization restore: missing root LU factor");
  stats_.levels = static_cast<int>(hss_.levels().size());
}

void ULVFactorization::assemble_node(int id, la::Matrix& d, la::Matrix& u,
                                     la::Matrix& v) const {
  const auto& nodes = hss_.nodes();
  const HSSNode& nd = nodes[id];
  if (nd.is_leaf()) {
    d = nd.d;
    u = nd.u;
    v = nd.v;
    return;
  }
  const NodeFactor& fa = nf_[nd.left];
  const NodeFactor& fb = nf_[nd.right];
  const int ra = fa.m - fa.me;  // children's kept unknowns (= their urank)
  const int rb = fb.m - fb.me;
  d = la::Matrix(ra + rb, ra + rb);
  d.set_block(0, 0, fa.dhat.block(fa.me, fa.me, ra, ra));
  d.set_block(ra, ra, fb.dhat.block(fb.me, fb.me, rb, rb));
  {
    la::Matrix t = la::matmul(fa.uhat, nd.b01);
    d.set_block(0, ra, la::matmul(t, fb.vhat, la::Trans::kNo, la::Trans::kYes));
  }
  {
    la::Matrix t = la::matmul(fb.uhat, nd.b10);
    d.set_block(ra, 0, la::matmul(t, fa.vhat, la::Trans::kNo, la::Trans::kYes));
  }
  if (id != hss_.root()) {
    // U = blkdiag(Uhat_a, Uhat_b) * Utrans, same for V with Vhat.
    u = la::Matrix(ra + rb, nd.urank());
    u.set_block(0, 0,
                la::matmul(fa.uhat, nd.u.block(0, 0, nodes[nd.left].urank(),
                                               nd.urank())));
    u.set_block(ra, 0,
                la::matmul(fb.uhat,
                           nd.u.block(nodes[nd.left].urank(), 0,
                                      nodes[nd.right].urank(), nd.urank())));
    v = la::Matrix(ra + rb, nd.vrank());
    v.set_block(0, 0,
                la::matmul(fa.vhat, nd.v.block(0, 0, nodes[nd.left].vrank(),
                                               nd.vrank())));
    v.set_block(ra, 0,
                la::matmul(fb.vhat,
                           nd.v.block(nodes[nd.left].vrank(), 0,
                                      nodes[nd.right].vrank(), nd.vrank())));
  }
}

void ULVFactorization::eliminate_node(int id, la::Matrix d, la::Matrix u,
                                      la::Matrix v) {
  NodeFactor& nf = nf_[id];
  const int m = d.rows();
  const int r = u.cols();
  const int me = m - r;
  nf.m = m;
  nf.me = me;

  if (me == 0) {
    // Nothing to eliminate here; everything is passed to the parent.
    nf.dhat = std::move(d);
    nf.uhat = std::move(u);
    nf.vhat = std::move(v);
    nf.v1 = la::Matrix(0, nf.vhat.cols());
    return;
  }

  // 1) Omega * U = [0; Uhat].
  la::QLResult ql = la::ql_zero_top(u);
  nf.omega = std::move(ql.omega);
  nf.uhat = std::move(ql.l);

  // 2) Triangularize the decoupled rows: (Omega D)(0:me, :) = [L 0] Qlq.
  la::Matrix dt = la::matmul(nf.omega, d);
  la::LQResult lqr = la::lq(dt.block(0, 0, me, m));
  nf.qlq = std::move(lqr.q);
  nf.dhat = la::matmul(dt, nf.qlq, la::Trans::kNo, la::Trans::kYes);

  // 3) V in the rotated unknowns: Vt = Qlq * V.
  la::Matrix vt = la::matmul(nf.qlq, v);
  nf.v1 = vt.block(0, 0, me, v.cols());
  nf.vhat = vt.block(me, 0, r, v.cols());
}

// Level-synchronous bottom-up sweep: a node reads only its children's
// factor slots (earlier level) and writes only its own, so every node of
// one level can be eliminated concurrently.  The per-node computation is
// a fixed serial sequence — results are bit-identical for any thread
// count or schedule.
void ULVFactorization::factor_tree_level_sweep() {
  const int root = hss_.root();
  for (const auto& level : hss_.levels()) {
    // if-clause: a singleton level gains nothing from the outer fan-out and
    // would pin its node's inner gemm/trsm parallelism to a nested team.
#pragma omp parallel for schedule(dynamic) if (level.size() > 1)
    for (std::size_t t = 0; t < level.size(); ++t) {
      const int id = level[t];
      if (id == root) continue;  // reduced root system handled below
      la::Matrix d, u, v;
      assemble_node(id, d, u, v);
      eliminate_node(id, std::move(d), std::move(u), std::move(v));
    }
  }
}

// Task-DAG sweep: one task per non-root node, with `depend` edges on
// per-node sentinel bytes — a parent's task carries in-dependences on its
// children's out-dependences, so it becomes runnable the moment its own
// subtree finishes rather than after the slowest node of each depth (the
// level sweep's barrier).  Tasks are created in postorder; OpenMP only
// orders a task against dependences of *previously created* sibling tasks,
// and postorder guarantees every child's task exists before its parent's.
// Inside the (active) parallel region each node's gemms auto-serialize via
// the in-parallel gate, exactly as in a multi-node level of the level
// sweep, so the two engines produce bit-identical factors.
void ULVFactorization::factor_tree_task_dag() {
  const auto& nodes = hss_.nodes();
  const int root = hss_.root();
  std::vector<char> done(nodes.size(), 0);
  // [[maybe_unused]]: the only uses are inside depend clauses, which the
  // compiler's use-tracking does not see.
  char* dep [[maybe_unused]] = done.data();
#pragma omp parallel default(shared)
#pragma omp single
  {
    for (const int id : hss_.postorder()) {
      if (id == root) continue;
      const HSSNode& nd = nodes[id];
      if (nd.is_leaf()) {
#pragma omp task default(shared) firstprivate(id) depend(out : dep[id])
        {
          la::Matrix d, u, v;
          assemble_node(id, d, u, v);
          eliminate_node(id, std::move(d), std::move(u), std::move(v));
        }
      } else {
        const int l = nd.left;
        const int r = nd.right;
#pragma omp task default(shared) firstprivate(id) \
    depend(in : dep[l], dep[r]) depend(out : dep[id])
        {
          la::Matrix d, u, v;
          assemble_node(id, d, u, v);
          eliminate_node(id, std::move(d), std::move(u), std::move(v));
        }
      }
    }
  }
  // Implicit barrier of the parallel region: the root's children are done.
}

void ULVFactorization::factor() {
  if (hss_.nodes().empty()) return;
  util::Timer total;
  const int root = hss_.root();

  if (schedule_ == ULVSchedule::kTaskDag) {
    factor_tree_task_dag();
  } else {
    factor_tree_level_sweep();
  }
  stats_.factor_tree_seconds = total.seconds();

  {
    util::Timer root_timer;
    la::Matrix d, u, v;
    assemble_node(root, d, u, v);
    NodeFactor& nf = nf_[root];
    nf.m = d.rows();
    nf.me = 0;
    root_lu_ = std::make_unique<la::LUFactor>(std::move(d));
    stats_.factor_root_seconds = root_timer.seconds();
  }
  stats_.factor_seconds = total.seconds();
}

la::Matrix ULVFactorization::solve(const la::Matrix& b) const {
  KHSS_REQUIRE(b.rows() == hss_.n(),
               "ULVFactorization::solve: right-hand side has "
                   << b.rows() << " rows; the factored matrix has n = "
                   << hss_.n());
  if (hss_.nodes().empty()) return la::Matrix(0, b.cols());
  util::Timer total;
  const auto& nodes = hss_.nodes();
  const int root = hss_.root();
  const int s = b.cols();

  // Forward pass scratch.
  std::vector<la::Matrix> z(nodes.size());       // eliminated unknowns
  std::vector<la::Matrix> bkept(nodes.size());   // reduced RHS passed up
  std::vector<la::Matrix> omega_acc(nodes.size());  // V^T x from eliminated z
  la::Matrix xroot;

  // Bottom-up level sweep; same independence argument as factor().  All
  // multi-RHS blocks run la::gemm_rhs_invariant / width-free TRSM, so the
  // solution is bit-identical under any column split of b.
  auto forward_node = [&](int id) {
      const HSSNode& nd = nodes[id];
      const NodeFactor& nf = nf_[id];
      la::Matrix bloc;
      la::Matrix w_init;
      if (nd.is_leaf()) {
        bloc = b.block(nd.lo, 0, nd.size(), s);
        if (id != root) w_init = la::Matrix(nd.vrank(), s);
      } else {
        const int l = nd.left, r = nd.right;
        const int ra = nf_[l].m - nf_[l].me;
        const int rb = nf_[r].m - nf_[r].me;
        bloc = la::Matrix(ra + rb, s);
        // Sibling coupling through already-eliminated unknowns moves to the
        // RHS:  b_a -= Uhat_a B01 omega_b  (and symmetrically).
        {
          la::Matrix t1 = la::matmul_rhs_invariant(nd.b01, omega_acc[r]);
          la::Matrix corr = la::matmul_rhs_invariant(nf_[l].uhat, t1);
          la::Matrix top = bkept[l];
          top.add(corr, -1.0);
          bloc.set_block(0, 0, top);
        }
        {
          la::Matrix t1 = la::matmul_rhs_invariant(nd.b10, omega_acc[l]);
          la::Matrix corr = la::matmul_rhs_invariant(nf_[r].uhat, t1);
          la::Matrix bot = bkept[r];
          bot.add(corr, -1.0);
          bloc.set_block(ra, 0, bot);
        }
        if (id != root) {
          // omega_p = Vtrans^T [omega_a; omega_b]  (+ V1^T z_p below).
          la::Matrix stacked(nodes[l].vrank() + nodes[r].vrank(), s);
          stacked.set_block(0, 0, omega_acc[l]);
          stacked.set_block(nodes[l].vrank(), 0, omega_acc[r]);
          w_init = la::matmul_rhs_invariant(nd.v, stacked, la::Trans::kYes,
                                            la::Trans::kNo);
        }
        // Children scratch consumed.
        bkept[l] = la::Matrix();
        bkept[r] = la::Matrix();
        omega_acc[l] = la::Matrix();
        omega_acc[r] = la::Matrix();
      }

      if (id == root) {
        root_lu_->solve_inplace(bloc);
        xroot = std::move(bloc);
        return;
      }

      if (nf.me == 0) {
        z[id] = la::Matrix(0, s);
        bkept[id] = std::move(bloc);
        omega_acc[id] = std::move(w_init);
        return;
      }

      // bt = Omega b;  L z = bt(0:me);  b_kept = bt(me:) - Dhat(me:,0:me) z.
      la::Matrix bt = la::matmul_rhs_invariant(nf.omega, bloc);
      la::Matrix ztop = bt.block(0, 0, nf.me, s);
      {
        la::Matrix lfac = nf.dhat.block(0, 0, nf.me, nf.me);
        la::trsm_lower_left(lfac, ztop, /*unit_diagonal=*/false);
      }
      la::Matrix bk = bt.block(nf.me, 0, nf.m - nf.me, s);
      {
        la::Matrix dlow = nf.dhat.block(nf.me, 0, nf.m - nf.me, nf.me);
        la::gemm_rhs_invariant(-1.0, dlow, la::Trans::kNo, ztop, la::Trans::kNo,
                               1.0, bk);
      }
      la::gemm_rhs_invariant(1.0, nf.v1, la::Trans::kYes, ztop, la::Trans::kNo,
                             1.0, w_init);

      z[id] = std::move(ztop);
      bkept[id] = std::move(bk);
      omega_acc[id] = std::move(w_init);
  };
  const auto& levels = hss_.levels();
  for (const auto& level : levels) {
    // Depth 0 holds only the root: run it outside any parallel region so
    // the dense root LU's blocked TRSMs keep their internal parallelism
    // (a one-iteration parallel for would pin them to a nested team of 1).
    if (level.size() == 1 && level[0] == root) {
      forward_node(root);
      continue;
    }
#pragma omp parallel for schedule(dynamic) if (level.size() > 1)
    for (std::size_t t = 0; t < level.size(); ++t) forward_node(level[t]);
  }
  const double forward_seconds = total.seconds();

  // Backward pass: distribute kept unknowns down the tree, un-rotating.
  // Top-down level sweep (reverse of levels): a node reads the xkept slot
  // its parent wrote one level earlier and writes its children's slots (or
  // its own rows of x) — again pairwise independent within a level.
  util::Timer backward;
  la::Matrix x(hss_.n(), s);
  std::vector<la::Matrix> xkept(nodes.size());
  xkept[root] = std::move(xroot);
  for (auto lit = levels.rbegin(); lit != levels.rend(); ++lit) {
    const auto& level = *lit;
#pragma omp parallel for schedule(dynamic) if (level.size() > 1)
    for (std::size_t t = 0; t < level.size(); ++t) {
      const int id = level[t];
      const HSSNode& nd = nodes[id];
      const NodeFactor& nf = nf_[id];

      la::Matrix xloc;
      if (id == root || nf.me == 0) {
        xloc = std::move(xkept[id]);
      } else {
        la::Matrix xt(nf.m, s);
        xt.set_block(0, 0, z[id]);
        xt.set_block(nf.me, 0, xkept[id]);
        xloc = la::matmul_rhs_invariant(nf.qlq, xt, la::Trans::kYes,
                                        la::Trans::kNo);
      }

      if (nd.is_leaf()) {
        x.set_block(nd.lo, 0, xloc);
      } else {
        const int ra = nf_[nd.left].m - nf_[nd.left].me;
        const int rb = nf_[nd.right].m - nf_[nd.right].me;
        xkept[nd.left] = xloc.block(0, 0, ra, s);
        xkept[nd.right] = xloc.block(ra, 0, rb, s);
      }
    }
  }
  // Timing fields are published in one locked write: solve() is const and
  // may run concurrently on one factorization, so stats_ must never see a
  // plain read-modify-write from here (the snapshot is last-writer-wins).
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.last_rhs = s;
    stats_.solve_forward_seconds = forward_seconds;
    stats_.solve_backward_seconds = backward.seconds();
    stats_.solve_seconds = total.seconds();
  }
  return x;
}

la::Vector ULVFactorization::solve(const la::Vector& b) const {
  KHSS_REQUIRE(static_cast<int>(b.size()) == hss_.n(),
               "ULVFactorization::solve: right-hand side has "
                   << b.size() << " rows; the factored matrix has n = "
                   << hss_.n());
  la::Matrix bm(hss_.n(), 1);
  for (int i = 0; i < hss_.n(); ++i) bm(i, 0) = b[i];
  la::Matrix xm = solve(bm);
  la::Vector out(hss_.n());
  for (int i = 0; i < hss_.n(); ++i) out[i] = xm(i, 0);
  return out;
}

std::size_t ULVFactorization::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& nf : nf_) {
    total += nf.omega.bytes() + nf.dhat.bytes() + nf.qlq.bytes() +
             nf.uhat.bytes() + nf.vhat.bytes() + nf.v1.bytes();
  }
  if (root_lu_) {
    total += static_cast<std::size_t>(root_lu_->n()) * root_lu_->n() *
             sizeof(double);
  }
  return total;
}

double ULVFactorization::relative_residual(const la::Vector& x,
                                           const la::Vector& b) const {
  KHSS_REQUIRE(static_cast<int>(x.size()) == hss_.n(),
               "ULVFactorization::relative_residual: x has "
                   << x.size() << " rows; the factored matrix has n = "
                   << hss_.n());
  KHSS_REQUIRE(static_cast<int>(b.size()) == hss_.n(),
               "ULVFactorization::relative_residual: right-hand side has "
                   << b.size() << " rows; the factored matrix has n = "
                   << hss_.n());
  la::Vector ax = hss_.matvec(x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double r = ax[i] - b[i];
    num += r * r;
    den += b[i] * b[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace khss::hss
