#include "hmat/hmatrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/threads.hpp"
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
    EntryFn entry = [&ctx, &a, &b](int i, int j) {
      return ctx.kernel.entry(a.lo + i, b.lo + j);
    };
    ACAOptions aca_opts;
    aca_opts.rtol = ctx.opts.rtol;
    aca_opts.max_rank = ctx.opts.max_rank;
    if (speculate) {
      const int half = std::min(a.size(), b.size()) / 2;
      aca_opts.max_rank = std::min(ctx.opts.speculative_rank_cap,
                                   std::max(1, half));
    }
    LowRank lr;
    if (aca(a.size(), b.size(), entry, aca_opts, &lr)) {
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

// Row chunk of the few-column multiply: a fixed size, so the work split
// depends on the shape alone.
constexpr int kRowChunk = 256;

// V^T * x(cols of blk, c0:c1) of a low-rank block (k x (c1 - c0)).
la::Matrix project_low_rank(const HBlock& blk, const la::Matrix& x, int c0,
                            int c1) {
  const int k = blk.lr.rank(), nc = c1 - c0;
  la::Matrix tmp(k, nc);
  for (int j = 0; j < blk.col_hi - blk.col_lo; ++j) {
    const double* xrow = x.row(blk.col_lo + j) + c0;
    const double* vrow = blk.lr.v.row(j);
    for (int t = 0; t < k; ++t) {
      const double vjt = vrow[t];
      if (vjt == 0.0) continue;
      double* trow = tmp.row(t);
      for (int c = 0; c < nc; ++c) trow[c] += vjt * xrow[c];
    }
  }
  return tmp;
}

// out(r0:r1, c0:c1) += blk(r0:r1, :) * x(cols of blk, c0:c1), for global
// rows [r0, r1) inside the block; `tmp` is project_low_rank's result for a
// low-rank block.  Each output element takes the block's terms in a fixed
// order (t, or j, ascending) whatever the row range.
void apply_block_rows(const HBlock& blk, const la::Matrix& tmp,
                      const la::Matrix& x, la::Matrix& out, int r0, int r1,
                      int c0, int c1) {
  const int nc = c1 - c0;
  if (blk.low_rank) {
    const int k = blk.lr.rank();
    for (int i = r0; i < r1; ++i) {
      double* orow = out.row(i) + c0;
      const double* urow = blk.lr.u.row(i - blk.row_lo);
      for (int t = 0; t < k; ++t) {
        const double uit = urow[t];
        if (uit == 0.0) continue;
        const double* trow = tmp.row(t);
        for (int c = 0; c < nc; ++c) orow[c] += uit * trow[c];
      }
    }
  } else {
    for (int i = r0; i < r1; ++i) {
      double* orow = out.row(i) + c0;
      const double* drow = blk.dense.row(i - blk.row_lo);
      for (int j = 0; j < blk.col_hi - blk.col_lo; ++j) {
        const double dij = drow[j];
        if (dij == 0.0) continue;
        const double* xrow = x.row(blk.col_lo + j) + c0;
        for (int c = 0; c < nc; ++c) orow[c] += dij * xrow[c];
      }
    }
  }
}

// out(rows of blk) += blk * x(cols of blk), restricted to columns [c0, c1).
void apply_block(const HBlock& blk, const la::Matrix& x, la::Matrix& out,
                 int c0, int c1) {
  if (blk.low_rank && blk.lr.rank() == 0) return;
  const la::Matrix tmp =
      blk.low_rank ? project_low_rank(blk, x, c0, c1) : la::Matrix();
  apply_block_rows(blk, tmp, x, out, blk.row_lo, blk.row_hi, c0, c1);
}

}  // namespace

la::Matrix HMatrix::multiply(const la::Matrix& x) const {
  KHSS_REQUIRE(x.rows() == n_, "HMatrix::multiply: x has " << x.rows()
                                   << " rows; the operator is of order "
                                   << n_);
  const int s = x.cols();
  la::Matrix out(n_, s);

  const int threads = util::max_threads();
  if (s >= 4 && s >= threads / 2) {
    // Column-sliced parallelism: disjoint output columns, no contention.
    const int chunks = std::min(threads, s);
#pragma omp parallel for schedule(static)
    for (int c = 0; c < chunks; ++c) {
      const int c0 = static_cast<int>(static_cast<long>(c) * s / chunks);
      const int c1 = static_cast<int>(static_cast<long>(c + 1) * s / chunks);
      for (const auto& blk : blocks_) apply_block(blk, x, out, c0, c1);
    }
  } else {
    // Few columns: every low-rank block's V^T x first, then fixed row
    // chunks in parallel, each applying the blocks that touch it in block
    // order.  Every output element therefore sums its terms in block order,
    // as in the column-sliced path, so the bits match that path's and do not
    // depend on the thread count.
    const std::size_t nb = blocks_.size();
    std::vector<la::Matrix> proj(nb);
#pragma omp parallel for schedule(dynamic, 8)
    for (std::size_t b = 0; b < nb; ++b) {
      if (blocks_[b].low_rank) proj[b] = project_low_rank(blocks_[b], x, 0, s);
    }
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
      const int r0 = ch * kRowChunk, r1 = std::min(n_, r0 + kRowChunk);
      for (int b : touching[ch]) {
        const HBlock& blk = blocks_[b];
        apply_block_rows(blk, proj[b], x, out, std::max(r0, blk.row_lo),
                         std::min(r1, blk.row_hi), 0, s);
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
