#include "hss/build.hpp"

#include <algorithm>
#include <stdexcept>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "la/rrqr.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace khss::hss {

namespace {

la::TruncationOptions id_truncation(const HSSOptions& opts) {
  la::TruncationOptions t;
  t.rtol = opts.rtol;
  t.atol = opts.atol;
  t.max_rank = opts.max_rank > 0 ? opts.max_rank : -1;
  return t;
}

std::vector<int> range_indices(int lo, int hi) {
  std::vector<int> idx(hi - lo);
  for (int i = lo; i < hi; ++i) idx[i - lo] = i;
  return idx;
}

std::vector<int> complement_indices(int lo, int hi, int n) {
  std::vector<int> idx;
  idx.reserve(n - (hi - lo));
  for (int i = 0; i < lo; ++i) idx.push_back(i);
  for (int i = hi; i < n; ++i) idx.push_back(i);
  return idx;
}

template <typename T>
std::vector<T> select(const std::vector<T>& v, const std::vector<int>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (int i : idx) out.push_back(v[i]);
  return out;
}

void require_symmetric(const HSSOptions& opts, const char* who) {
  KHSS_REQUIRE(opts.symmetric,
               who << ": HSSOptions::symmetric must be true; the HSS format "
                      "stores one basis per node (V = U, B10 = B01^T) and has "
                      "no non-symmetric build");
}

}  // namespace

// ---------------------------------------------------------------------------
// Direct (reference) builder
// ---------------------------------------------------------------------------

HSSMatrix build_hss_direct(const cluster::ClusterTree& tree,
                           const ExtractFn& extract, const HSSOptions& opts) {
  require_symmetric(opts, "build_hss_direct");
  util::Timer total_timer;
  const int n = tree.num_points();
  std::vector<HSSNode> nodes = skeleton_from_tree(tree);
  const la::TruncationOptions trunc = id_truncation(opts);
  const auto by_level = cluster::levels_bottom_up(nodes);

  for (const auto& level : by_level) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t t = 0; t < level.size(); ++t) {
      const int id = level[t];
      HSSNode& nd = nodes[id];

      if (nd.is_leaf()) {
        nd.d = extract(range_indices(nd.lo, nd.hi),
                       range_indices(nd.lo, nd.hi));
      } else {
        // Coupling between the children (already compressed).
        nd.b01 = extract(nodes[nd.left].jrow, nodes[nd.right].jrow);
      }

      if (id == 0) continue;  // root stores only D / B01

      const std::vector<int> comp = complement_indices(nd.lo, nd.hi, n);

      // Row side: the hanger A(rows, comp), restricted to the children's
      // selected rows for internal nodes (nested basis).
      std::vector<int> row_candidates;
      if (nd.is_leaf()) {
        row_candidates = range_indices(nd.lo, nd.hi);
      } else {
        row_candidates = nodes[nd.left].jrow;
        row_candidates.insert(row_candidates.end(), nodes[nd.right].jrow.begin(),
                              nodes[nd.right].jrow.end());
      }
      la::Matrix hanger = extract(row_candidates, comp);
      la::RowID rid = la::interpolative_rows(hanger, trunc);
      nd.u = std::move(rid.basis);
      nd.jrow = select(row_candidates, rid.rows);
    }
  }

  HSSMatrix out(std::move(nodes), tree.postorder(), n);
  out.construction_seconds_ = total_timer.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Randomized builder
// ---------------------------------------------------------------------------

namespace {

// Stage of a node in the randomized build.  A node stays kPending until both
// children are kDone, and is kOpen while its rank saturates the sample.
enum class Stage : unsigned char { kPending, kOpen, kDone };

// Per-node scratch of the randomized build.  Every matrix spans all sample
// columns drawn so far unless it says otherwise.
struct NodeScratch {
  Stage stage = Stage::kPending;
  // Open node: its local sample (candidate rows x s); a leaf also keeps
  // R(I).  Done node whose parent is not done: the skeleton rows of its local
  // sample, and rt = U^T R(I).
  la::Matrix sloc, rloc, rt;
  // Done node whose parent is done: this round's new columns of sloc and rt,
  // until the parent has read them.
  la::Matrix dsloc, drt;
  std::vector<int> jloc_row;  // selected local rows of the local sample
};

// [a b]: b's columns appended to a's.
la::Matrix hcat(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows(), a.cols() + b.cols());
  out.set_block(0, 0, a);
  out.set_block(0, a.cols(), b);
  return out;
}

// [a; b]: b's rows below a's.
la::Matrix vcat(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows() + b.rows(), a.cols());
  out.set_block(0, 0, a);
  out.set_block(a.rows(), 0, b);
  return out;
}

// Local sample of an internal node from its children's skeleton-row samples
// and rt, with the children's cross contribution removed: rows Jrow_left see
// - B01 (U_r^T R(I_r)), rows Jrow_right see - B01^T (U_l^T R(I_l)).
la::Matrix merged_sample(const la::Matrix& b01, const la::Matrix& sloc_l,
                         const la::Matrix& rt_l, const la::Matrix& sloc_r,
                         const la::Matrix& rt_r) {
  la::Matrix top = sloc_l;
  la::gemm(-1.0, b01, la::Trans::kNo, rt_r, la::Trans::kNo, 1.0, top);
  la::Matrix bot = sloc_r;
  la::gemm(-1.0, b01, la::Trans::kYes, rt_l, la::Trans::kNo, 1.0, bot);
  return vcat(top, bot);
}

// Interpolative compression of a non-root node's local sample.  When the rank
// saturates the sample (k > s - oversampling) nothing changes and false is
// returned.  Otherwise the node gets U and Jrow and becomes done, keeping the
// skeleton rows of `sloc` and rt = U^T r, where r is R(I) for a leaf and the
// children's stacked rt for an internal node.
bool try_compress(std::vector<HSSNode>& nodes, int id, NodeScratch& sc,
                  const la::Matrix& sloc, const la::Matrix& r,
                  const HSSOptions& opts) {
  la::RowID rid = la::interpolative_rows(sloc, id_truncation(opts));
  if (static_cast<int>(rid.rows.size()) > sloc.cols() - opts.oversampling) {
    return false;
  }
  HSSNode& nd = nodes[id];
  nd.u = std::move(rid.basis);
  if (nd.is_leaf()) {
    nd.jrow.clear();
    for (int j : rid.rows) nd.jrow.push_back(nd.lo + j);
  } else {
    std::vector<int> merged = nodes[nd.left].jrow;
    merged.insert(merged.end(), nodes[nd.right].jrow.begin(),
                  nodes[nd.right].jrow.end());
    nd.jrow = select(merged, rid.rows);
  }
  sc.sloc = sloc.rows_subset(rid.rows);
  sc.rt = la::matmul(nd.u, r, la::Trans::kYes, la::Trans::kNo);
  sc.rloc = la::Matrix();
  sc.jloc_row = std::move(rid.rows);
  sc.stage = Stage::kDone;
  return true;
}

// Hands a done node's new columns to its parent: kept apart for a done
// parent, which extends its own columns from them, appended otherwise, since
// an open or pending parent compresses all columns at once.
void pass_up(NodeScratch& sc, bool parent_done, la::Matrix dsloc,
             la::Matrix drt) {
  if (parent_done) {
    sc.dsloc = std::move(dsloc);
    sc.drt = std::move(drt);
  } else {
    sc.sloc = hcat(sc.sloc, dsloc);
    sc.rt = hcat(sc.rt, drt);
  }
}

// One round at a leaf, given this round's random columns dr and samples
// ds = A dr.  A done leaf only passes the new columns up.
void leaf_round(std::vector<HSSNode>& nodes, std::vector<NodeScratch>& scratch,
                int id, const ExtractFn& extract, const la::Matrix& dr,
                const la::Matrix& ds, const HSSOptions& opts) {
  HSSNode& nd = nodes[id];
  NodeScratch& sc = scratch[id];
  la::Matrix rloc = dr.block(nd.lo, 0, nd.size(), dr.cols());
  if (sc.stage == Stage::kDone) {
    la::Matrix dsloc = ds.rows_subset(nd.jrow);
    la::gemm(-1.0, nd.d.rows_subset(sc.jloc_row), la::Trans::kNo, rloc,
             la::Trans::kNo, 1.0, dsloc);
    pass_up(sc, scratch[nd.parent].stage == Stage::kDone, std::move(dsloc),
            la::matmul(nd.u, rloc, la::Trans::kYes, la::Trans::kNo));
    return;
  }
  if (sc.stage == Stage::kPending) {
    const std::vector<int> idx = range_indices(nd.lo, nd.hi);
    nd.d = extract(idx, idx);
  }
  la::Matrix sloc = ds.block(nd.lo, 0, nd.size(), ds.cols());
  la::gemm(-1.0, nd.d, la::Trans::kNo, rloc, la::Trans::kNo, 1.0, sloc);
  if (sc.stage == Stage::kOpen) {
    sloc = hcat(sc.sloc, sloc);
    rloc = hcat(sc.rloc, rloc);
  }
  if (id == 0) {  // a single-leaf tree stores only D
    sc.stage = Stage::kDone;
  } else if (!try_compress(nodes, id, sc, sloc, rloc, opts)) {
    sc.stage = Stage::kOpen;
    sc.sloc = std::move(sloc);
    sc.rloc = std::move(rloc);
  }
}

// One round at an internal node, after its children's round.  A done node
// extends its skeleton-row sample and rt by the children's new columns; a
// node whose children are both done (re)compresses all columns.
void internal_round(std::vector<HSSNode>& nodes,
                    std::vector<NodeScratch>& scratch, int id,
                    const ExtractFn& extract, const HSSOptions& opts) {
  HSSNode& nd = nodes[id];
  NodeScratch& sc = scratch[id];
  NodeScratch& scl = scratch[nd.left];
  NodeScratch& scr = scratch[nd.right];
  if (sc.stage == Stage::kDone) {
    la::Matrix dsloc =
        merged_sample(nd.b01, scl.dsloc, scl.drt, scr.dsloc, scr.drt)
            .rows_subset(sc.jloc_row);
    la::Matrix drt = la::matmul(nd.u, vcat(scl.drt, scr.drt), la::Trans::kYes,
                                la::Trans::kNo);
    scl.dsloc = scl.drt = scr.dsloc = scr.drt = la::Matrix();
    pass_up(sc, scratch[nd.parent].stage == Stage::kDone, std::move(dsloc),
            std::move(drt));
    return;
  }
  if (scl.stage != Stage::kDone || scr.stage != Stage::kDone) return;
  if (sc.stage == Stage::kPending) {
    nd.b01 = extract(nodes[nd.left].jrow, nodes[nd.right].jrow);
  }
  if (id == 0) {  // the root stores only B01
    sc.stage = Stage::kDone;
  } else if (!try_compress(
                 nodes, id, sc,
                 merged_sample(nd.b01, scl.sloc, scl.rt, scr.sloc, scr.rt),
                 vcat(scl.rt, scr.rt), opts)) {
    sc.stage = Stage::kOpen;
    return;
  }
  scl.sloc = scl.rt = scr.sloc = scr.rt = la::Matrix();
}

}  // namespace

HSSMatrix build_hss_randomized(const cluster::ClusterTree& tree,
                               const ExtractFn& extract,
                               const SampleFn& sample,
                               const SampleFn& sample_transpose,
                               const HSSOptions& opts) {
  require_symmetric(opts, "build_hss_randomized");
  KHSS_REQUIRE(!sample_transpose,
               "build_hss_randomized: sample_transpose must be empty; a "
               "symmetric matrix is sampled by `sample` alone");
  KHSS_REQUIRE(extract && sample,
               "build_hss_randomized: extract and sample callbacks must be "
               "set");
  util::Timer total_timer;
  const int n = tree.num_points();
  util::Rng rng(opts.seed);
  std::vector<HSSNode> nodes = skeleton_from_tree(tree);
  std::vector<NodeScratch> scratch(nodes.size());

  // All leaves go first, so each round's sample block is dropped before the
  // internal levels run; those follow bottom-up.
  std::vector<int> leaves;
  std::vector<std::vector<int>> internal_levels;
  for (const auto& level : cluster::levels_bottom_up(nodes)) {
    std::vector<int> internal;
    for (int id : level) (nodes[id].is_leaf() ? leaves : internal).push_back(id);
    if (!internal.empty()) internal_levels.push_back(std::move(internal));
  }

  // Each round after the first draws as many new columns as are drawn so
  // far, so the sample count doubles: 64, 128, 256, ... by default.
  int s = 0;
  int width = std::min(std::max(opts.init_samples, opts.oversampling + 8), n);
  double sampling_seconds = 0.0;
  for (int round = 0;; ++round) {
    s += width;
    la::Matrix dr(n, width);
    rng.fill_normal(dr.data(), dr.size());
    util::Timer sample_timer;
    la::Matrix ds = sample(dr);
    sampling_seconds += sample_timer.seconds();

#pragma omp parallel for schedule(dynamic)
    for (std::size_t t = 0; t < leaves.size(); ++t) {
      leaf_round(nodes, scratch, leaves[t], extract, dr, ds, opts);
    }
    dr = la::Matrix();
    ds = la::Matrix();
    for (const auto& level : internal_levels) {
#pragma omp parallel for schedule(dynamic)
      for (std::size_t t = 0; t < level.size(); ++t) {
        internal_round(nodes, scratch, level[t], extract, opts);
      }
    }

    if (scratch[0].stage == Stage::kDone) {
      HSSMatrix out(std::move(nodes), tree.postorder(), n);
      out.samples_used_ = s;
      out.restarts_ = round;
      out.sampling_seconds_ = sampling_seconds;
      out.construction_seconds_ = total_timer.seconds();
      return out;
    }
    if (s >= n || round >= opts.max_restarts) {
      throw std::runtime_error(
          "build_hss_randomized: rank did not stabilize within the sampling "
          "budget; the matrix is likely not HSS-compressible at this "
          "tolerance");
    }
    width = std::min(s, n - s);
  }
}

HSSMatrix build_hss_from_dense(const la::Matrix& a,
                               const cluster::ClusterTree& tree,
                               const HSSOptions& opts, bool randomized) {
  KHSS_REQUIRE(a.rows() == a.cols(), "build_hss_from_dense: matrix is "
                                         << a.rows() << " x " << a.cols()
                                         << ", not square");
  KHSS_REQUIRE(a.rows() == tree.num_points(),
               "build_hss_from_dense: matrix order " << a.rows()
                   << " != tree points " << tree.num_points());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < i; ++j) {
      KHSS_REQUIRE(a(i, j) == a(j, i),
                   "build_hss_from_dense: matrix is not symmetric: A("
                       << i << ", " << j << ") != A(" << j << ", " << i
                       << "); the HSS format stores B10 = B01^T");
    }
  }
  ExtractFn extract = [&a](const std::vector<int>& rows,
                           const std::vector<int>& cols) {
    la::Matrix out(static_cast<int>(rows.size()), static_cast<int>(cols.size()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < cols.size(); ++j) {
        out(static_cast<int>(i), static_cast<int>(j)) = a(rows[i], cols[j]);
      }
    }
    return out;
  };
  if (!randomized) return build_hss_direct(tree, extract, opts);

  SampleFn sample = [&a](const la::Matrix& r) { return la::matmul(a, r); };
  return build_hss_randomized(tree, extract, sample, {}, opts);
}

}  // namespace khss::hss
