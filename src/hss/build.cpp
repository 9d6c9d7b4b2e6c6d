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

// Per-node scratch of one randomized construction attempt.
struct NodeScratch {
  la::Matrix sloc;        // local sample (rows x s)
  la::Matrix rt;          // U^T R(I)   (ru x s)
  std::vector<int> jloc_row;  // selected local rows of sloc
};

// One construction attempt with a fixed sample count.  Returns false when
// some node's rank saturated the sample budget (caller doubles and retries).
bool try_randomized_build(std::vector<HSSNode>& nodes,
                          const std::vector<std::vector<int>>& by_level,
                          const ExtractFn& extract, const la::Matrix& r_block,
                          const la::Matrix& s_block, const HSSOptions& opts) {
  const int s = r_block.cols();
  const la::TruncationOptions trunc = id_truncation(opts);
  const int rank_budget = s - opts.oversampling;
  std::vector<NodeScratch> scratch(nodes.size());
  bool failed = false;

  for (const auto& level : by_level) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t t = 0; t < level.size(); ++t) {
      bool bail;
#pragma omp atomic read
      bail = failed;
      if (bail) continue;
      const int id = level[t];
      HSSNode& nd = nodes[id];
      NodeScratch& sc = scratch[id];

      if (nd.is_leaf()) {
        const std::vector<int> idx = range_indices(nd.lo, nd.hi);
        nd.d = extract(idx, idx);
        la::Matrix rloc = r_block.block(nd.lo, 0, nd.size(), s);
        sc.sloc = s_block.block(nd.lo, 0, nd.size(), s);
        la::gemm(-1.0, nd.d, la::Trans::kNo, rloc, la::Trans::kNo, 1.0,
                 sc.sloc);
      } else {
        HSSNode& l = nodes[nd.left];
        HSSNode& r = nodes[nd.right];
        NodeScratch& scl = scratch[nd.left];
        NodeScratch& scr = scratch[nd.right];

        nd.b01 = extract(l.jrow, r.jrow);

        // Merged sample with the children's cross contribution removed:
        // rows Jrow_left see  - B01 (U_r^T R(I_r)), rows Jrow_right see
        // - B01^T (U_l^T R(I_l)).
        la::Matrix top = scl.sloc.rows_subset(scl.jloc_row);
        la::gemm(-1.0, nd.b01, la::Trans::kNo, scr.rt, la::Trans::kNo, 1.0,
                 top);
        la::Matrix bot = scr.sloc.rows_subset(scr.jloc_row);
        la::gemm(-1.0, nd.b01, la::Trans::kYes, scl.rt, la::Trans::kNo, 1.0,
                 bot);
        sc.sloc = la::Matrix(top.rows() + bot.rows(), s);
        sc.sloc.set_block(0, 0, top);
        sc.sloc.set_block(top.rows(), 0, bot);

        // Children scratch no longer needed once merged.
        scl.sloc = la::Matrix();
        scr.sloc = la::Matrix();
      }

      if (id == 0) continue;  // root keeps only B01

      // Interpolative compression of the local sample.
      la::RowID rid = la::interpolative_rows(sc.sloc, trunc);
      const int k = static_cast<int>(rid.rows.size());
      if (k > rank_budget) {
#pragma omp atomic write
        failed = true;
        continue;
      }
      nd.u = std::move(rid.basis);
      sc.jloc_row = std::move(rid.rows);
      if (nd.is_leaf()) {
        nd.jrow.clear();
        for (int j : sc.jloc_row) nd.jrow.push_back(nd.lo + j);
      } else {
        std::vector<int> merged = nodes[nd.left].jrow;
        merged.insert(merged.end(), nodes[nd.right].jrow.begin(),
                      nodes[nd.right].jrow.end());
        nd.jrow = select(merged, sc.jloc_row);
      }

      // Accumulated compressed random block for the parent's subtraction.
      if (nd.is_leaf()) {
        la::Matrix rloc = r_block.block(nd.lo, 0, nd.size(), s);
        sc.rt = la::matmul(nd.u, rloc, la::Trans::kYes, la::Trans::kNo);
      } else {
        NodeScratch& scl = scratch[nd.left];
        NodeScratch& scr = scratch[nd.right];
        la::Matrix stacked(scl.rt.rows() + scr.rt.rows(), s);
        stacked.set_block(0, 0, scl.rt);
        stacked.set_block(scl.rt.rows(), 0, scr.rt);
        sc.rt = la::matmul(nd.u, stacked, la::Trans::kYes, la::Trans::kNo);
        scl.rt = la::Matrix();
        scr.rt = la::Matrix();
      }
    }
    if (failed) return false;
  }
  return true;
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

  int s = std::min(std::max(opts.init_samples, opts.oversampling + 8), n);
  double sampling_seconds = 0.0;
  int restarts = 0;

  for (;; ++restarts) {
    la::Matrix r_block(n, s);
    rng.fill_normal(r_block.data(), r_block.size());
    util::Timer sample_timer;
    la::Matrix s_block = sample(r_block);
    sampling_seconds += sample_timer.seconds();

    std::vector<HSSNode> nodes = skeleton_from_tree(tree);
    const auto by_level = cluster::levels_bottom_up(nodes);
    if (try_randomized_build(nodes, by_level, extract, r_block, s_block,
                             opts)) {
      HSSMatrix out(std::move(nodes), tree.postorder(), n);
      out.samples_used_ = s;
      out.restarts_ = restarts;
      out.sampling_seconds_ = sampling_seconds;
      out.construction_seconds_ = total_timer.seconds();
      return out;
    }

    if (s >= n || restarts >= opts.max_restarts) {
      throw std::runtime_error(
          "build_hss_randomized: rank did not stabilize within the sampling "
          "budget; the matrix is likely not HSS-compressible at this "
          "tolerance");
    }
    s = std::min(2 * s, n);
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
