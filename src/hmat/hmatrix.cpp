#include "hmat/hmatrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/gemm_kernel.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::hmat {

namespace {

double centroid_distance(const cluster::ClusterNode& a,
                         const cluster::ClusterNode& b) {
  double s = 0.0;
  for (std::size_t j = 0; j < a.centroid.size(); ++j) {
    const double d = a.centroid[j] - b.centroid[j];
    s += d * d;
  }
  return std::sqrt(s);
}

// Strong admissibility on ball summaries:
//   min(diam_a, diam_b) <= eta * dist(a, b),  dist = ||c_a-c_b|| - r_a - r_b.
bool admissible(const cluster::ClusterNode& a, const cluster::ClusterNode& b,
                double eta) {
  const double dist = centroid_distance(a, b) - a.radius - b.radius;
  if (dist <= 0.0) return false;
  const double diam = 2.0 * std::min(a.radius, b.radius);
  return diam <= eta * dist;
}

struct BuildCtx {
  const kernel::KernelMatrix& kernel;
  const cluster::ClusterTree& tree;
  const HOptions& opts;
  std::vector<HBlock>* blocks;
};

void emit_dense(BuildCtx& ctx, const cluster::ClusterNode& a,
                const cluster::ClusterNode& b) {
  HBlock blk;
  blk.row_lo = a.lo;
  blk.row_hi = a.hi;
  blk.col_lo = b.lo;
  blk.col_hi = b.hi;
  blk.low_rank = false;
  std::vector<int> rows(a.size()), cols(b.size());
  for (int i = 0; i < a.size(); ++i) rows[i] = a.lo + i;
  for (int j = 0; j < b.size(); ++j) cols[j] = b.lo + j;
  blk.dense = ctx.kernel.extract(rows, cols);
#pragma omp critical(hmat_blocks)
  ctx.blocks->push_back(std::move(blk));
}

void build_rec(BuildCtx& ctx, int na, int nb) {
  const auto& a = ctx.tree.node(na);
  const auto& b = ctx.tree.node(nb);

  const bool disjoint = na != nb;
  const bool strong = disjoint && admissible(a, b, ctx.opts.eta);
  // Speculative path: large off-diagonal block that failed the geometric
  // test; bounded-rank ACA decides whether it is low-rank anyway.
  const bool speculate =
      disjoint && !strong && ctx.opts.speculative &&
      std::min(a.size(), b.size()) >= 2 * ctx.opts.dense_block_cutoff;

  if (strong || speculate) {
    // Index ranges of off-diagonal blocks are disjoint by construction (the
    // recursion only keeps a == b on the diagonal), so the lambda shift
    // never leaks into low-rank factors.
    const PanelFn panels = kernel_panels(ctx.kernel, a.lo, a.hi, b.lo, b.hi);
    ACAOptions aca_opts;
    aca_opts.rtol = ctx.opts.rtol;
    aca_opts.max_rank = ctx.opts.max_rank;
    if (speculate) {
      const int half = std::min(a.size(), b.size()) / 2;
      aca_opts.max_rank = std::min(ctx.opts.speculative_rank_cap,
                                   std::max(1, half));
    }
    LowRank lr;
    if (aca(a.size(), b.size(), panels, aca_opts, &lr)) {
      if (ctx.opts.recompress && lr.rank() > 1) {
        recompress(&lr, ctx.opts.rtol);
      }
      HBlock blk;
      blk.row_lo = a.lo;
      blk.row_hi = a.hi;
      blk.col_lo = b.lo;
      blk.col_hi = b.hi;
      blk.low_rank = true;
      blk.lr = std::move(lr);
#pragma omp critical(hmat_blocks)
      ctx.blocks->push_back(std::move(blk));
      return;
    }
    // ACA hit the rank cap: fall through to subdivision (or dense when the
    // block cannot be split further).
  }

  const bool small = std::max(a.size(), b.size()) <= ctx.opts.dense_block_cutoff;
  if ((a.is_leaf() && b.is_leaf()) || small) {
    emit_dense(ctx, a, b);
    return;
  }

  // Subdivide whichever sides can be subdivided.
  const int as[2] = {a.is_leaf() ? na : a.left, a.is_leaf() ? -1 : a.right};
  const int bs[2] = {b.is_leaf() ? nb : b.left, b.is_leaf() ? -1 : b.right};
  for (int ia = 0; ia < 2; ++ia) {
    if (as[ia] < 0) continue;
    for (int ib = 0; ib < 2; ++ib) {
      if (bs[ib] < 0) continue;
      const int ca = as[ia], cb = bs[ib];
      const long work = static_cast<long>(ctx.tree.node(ca).size()) *
                        ctx.tree.node(cb).size();
#pragma omp task default(shared) if (work > 16384)
      build_rec(ctx, ca, cb);
    }
  }
#pragma omp taskwait
}

}  // namespace

HMatrix::HMatrix(const kernel::KernelMatrix& kernel,
                 const cluster::ClusterTree& tree, const HOptions& opts) {
  KHSS_REQUIRE(kernel.n() == tree.num_points(),
               "HMatrix: kernel has " << kernel.n() << " points but tree has "
                                      << tree.num_points());
  n_ = kernel.n();
  lambda_ = kernel.lambda();
  build(kernel, tree, opts);
}

void HMatrix::build(const kernel::KernelMatrix& kernel,
                    const cluster::ClusterTree& tree, const HOptions& opts) {
  util::Timer timer;
  BuildCtx ctx{kernel, tree, opts, &blocks_};
#pragma omp parallel
  {
#pragma omp single
    build_rec(ctx, tree.root(), tree.root());
  }

  // Deterministic block order regardless of task scheduling.
  std::sort(blocks_.begin(), blocks_.end(), [](const HBlock& x, const HBlock& y) {
    if (x.row_lo != y.row_lo) return x.row_lo < y.row_lo;
    return x.col_lo < y.col_lo;
  });

  stats_ = HStats{};
  stats_.build_seconds = timer.seconds();
  stats_.num_blocks = static_cast<int>(blocks_.size());
  for (const auto& blk : blocks_) {
    if (blk.low_rank) {
      ++stats_.num_lowrank_blocks;
      stats_.memory_bytes += blk.lr.bytes();
      stats_.max_block_rank = std::max(stats_.max_block_rank, blk.lr.rank());
    } else {
      ++stats_.num_dense_blocks;
      stats_.memory_bytes += blk.dense.bytes();
    }
  }
}

HMatrix::HMatrix(int n, double lambda, std::vector<HBlock> blocks)
    : n_(n), lambda_(lambda), blocks_(std::move(blocks)) {
  KHSS_REQUIRE(n_ >= 0, "HMatrix restore: negative n " << n_);
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    const HBlock& blk = blocks_[id];
    KHSS_REQUIRE(blk.row_lo >= 0 && blk.row_hi >= blk.row_lo &&
                     blk.row_hi <= n_ && blk.col_lo >= 0 &&
                     blk.col_hi >= blk.col_lo && blk.col_hi <= n_,
                 "HMatrix restore: block " << id << " spans rows ["
                     << blk.row_lo << ", " << blk.row_hi << ") x cols ["
                     << blk.col_lo << ", " << blk.col_hi << ") outside [0, "
                     << n_ << ")");
    if (!blk.low_rank) {
      KHSS_REQUIRE(blk.dense.rows() == blk.row_hi - blk.row_lo &&
                       blk.dense.cols() == blk.col_hi - blk.col_lo,
                   "HMatrix restore: dense block " << id << " is "
                       << blk.dense.rows() << " x " << blk.dense.cols()
                       << " for a span of " << blk.row_hi - blk.row_lo
                       << " x " << blk.col_hi - blk.col_lo);
    }
  }
  stats_ = HStats{};
  stats_.num_blocks = static_cast<int>(blocks_.size());
  for (const auto& blk : blocks_) {
    if (blk.low_rank) {
      ++stats_.num_lowrank_blocks;
      stats_.memory_bytes += blk.lr.bytes();
      stats_.max_block_rank = std::max(stats_.max_block_rank, blk.lr.rank());
    } else {
      ++stats_.num_dense_blocks;
      stats_.memory_bytes += blk.dense.bytes();
    }
  }
}

namespace {

// Row chunk of the multiply: a fixed size, so the work split depends on the
// shape alone.
constexpr int kRowChunk = 256;

}  // namespace

la::Matrix HMatrix::multiply(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n_, "HMatrix::multiply: x has " << x.rows()
                                   << " rows; the operator is of order "
                                   << n_);
  const int s = x.cols();
  la::Matrix out(n_, s);

  // V^T X(cols) of every low-rank block, stacked in one buffer (sum of the
  // ranks x s), each through the packed core reading V transposed in place.
  const std::size_t nb = blocks_.size();
  std::vector<std::size_t> proj_at(nb + 1, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    const int k = blocks_[b].low_rank ? blocks_[b].lr.rank() : 0;
    proj_at[b + 1] = proj_at[b] + static_cast<std::size_t>(k) * s;
  }
  std::vector<double> proj(proj_at[nb], 0.0);
#pragma omp parallel for schedule(dynamic, 8)
  for (std::size_t b = 0; b < nb; ++b) {
    const HBlock& blk = blocks_[b];
    if (!blk.low_rank) continue;
    const int k = blk.lr.rank();
    la::detail::gemm_packed_serial(k, s, blk.col_hi - blk.col_lo, 1.0,
                                   blk.lr.v.data(), k, /*ta=*/true,
                                   x.row(blk.col_lo), s, false,
                                   proj.data() + proj_at[b], s);
  }

  // Fixed row chunks in parallel, each applying the blocks that touch it in
  // block order: D X(cols) or U (V^T X) through the same packed call,
  // straight into the output rows.  An output element therefore sums its
  // block terms in block order, and each term in the packed core's fixed
  // order, so its bits depend on the shape alone: not on the thread count,
  // the row chunk or the other columns of X.
  const int nchunks = (n_ + kRowChunk - 1) / kRowChunk;
  std::vector<std::vector<int>> touching(nchunks);
  for (std::size_t b = 0; b < nb; ++b) {
    const HBlock& blk = blocks_[b];
    for (int ch = blk.row_lo / kRowChunk; ch * kRowChunk < blk.row_hi; ++ch) {
      touching[ch].push_back(static_cast<int>(b));
    }
  }
#pragma omp parallel for schedule(dynamic)
  for (int ch = 0; ch < nchunks; ++ch) {
    const int lo = ch * kRowChunk, hi = std::min(n_, lo + kRowChunk);
    for (int b : touching[ch]) {
      const HBlock& blk = blocks_[b];
      const int r0 = std::max(lo, blk.row_lo), r1 = std::min(hi, blk.row_hi);
      if (blk.low_rank) {
        const int k = blk.lr.rank();
        la::detail::gemm_packed_serial(r1 - r0, s, k, 1.0,
                                       blk.lr.u.row(r0 - blk.row_lo), k, false,
                                       proj.data() + proj_at[b], s, false,
                                       out.row(r0), s);
      } else {
        const int nc = blk.col_hi - blk.col_lo;
        la::detail::gemm_packed_serial(r1 - r0, s, nc, 1.0,
                                       blk.dense.row(r0 - blk.row_lo), nc,
                                       false, x.row(blk.col_lo), s, false,
                                       out.row(r0), s);
      }
    }
  }

  // NOTE: the lambda shift is already in the dense diagonal blocks — they
  // come from KernelMatrix::extract(), which adds it, and set_lambda() keeps
  // them in sync — so no extra diagonal term is added here.
  return out;
}

la::Vector HMatrix::multiply(const la::Vector& x) const {
  la::Matrix xm(n_, 1);
  for (int i = 0; i < n_; ++i) xm(i, 0) = x[i];
  la::Matrix ym = multiply(xm);
  la::Vector y(n_);
  for (int i = 0; i < n_; ++i) y[i] = ym(i, 0);
  return y;
}

void HMatrix::set_lambda(double lambda) {
  const double delta = lambda - lambda_;
  if (delta == 0.0) return;
  for (auto& blk : blocks_) {
    if (blk.low_rank) continue;
    // Diagonal blocks are exactly those whose ranges coincide on the
    // diagonal; overlapping-but-unequal ranges cannot occur by construction.
    if (blk.row_lo >= blk.col_hi || blk.col_lo >= blk.row_hi) continue;
    const int lo = std::max(blk.row_lo, blk.col_lo);
    const int hi = std::min(blk.row_hi, blk.col_hi);
    for (int g = lo; g < hi; ++g) {
      blk.dense(g - blk.row_lo, g - blk.col_lo) += delta;
    }
  }
  lambda_ = lambda;
}

la::Matrix HMatrix::dense() const {
  la::Matrix out(n_, n_);
  for (const auto& blk : blocks_) {
    if (blk.low_rank) {
      la::Matrix d = blk.lr.dense();
      out.set_block(blk.row_lo, blk.col_lo, d);
    } else {
      out.set_block(blk.row_lo, blk.col_lo, blk.dense);
    }
  }
  return out;
}

}  // namespace khss::hmat
