#include "cluster/ordering.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cluster/agglomerative.hpp"

namespace khss::cluster {

namespace {

double sqdist(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int j = 0; j < d; ++j) {
    const double diff = a[j] - b[j];
    s += diff * diff;
  }
  return s;
}

// sqdist of points a and b to centres c0 and c1 in one pass over the
// coordinates: four independent sums, each in sqdist's order (so each has
// sqdist's bits), whose add chains overlap.
void sqdist_two_by_two(const double* a, const double* b, const double* c0,
                       const double* c1, int d, double out[4]) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int j = 0; j < d; ++j) {
    const double a0 = a[j] - c0[j];
    const double a1 = a[j] - c1[j];
    const double b0 = b[j] - c0[j];
    const double b1 = b[j] - c1[j];
    s0 += a0 * a0;
    s1 += a1 * a1;
    s2 += b0 * b0;
    s3 += b1 * b1;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// Shared state of one tree build.  `idx` is permuted in place; every split
// routine partitions idx[lo, hi) and returns the split position mid with
// lo < mid < hi (callers guarantee hi - lo >= 2).
struct Builder {
  const la::Matrix& pts;
  const OrderingOptions& opts;
  std::vector<int> idx;
  util::Rng rng;

  Builder(const la::Matrix& points, const OrderingOptions& options)
      : pts(points), opts(options), rng(options.seed) {
    idx.resize(points.rows());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  }

  // Start from an existing permutation (sieved build: the counting-sorted
  // leaf layout) instead of the identity.
  Builder(const la::Matrix& points, const OrderingOptions& options,
          std::vector<int> preset_idx)
      : pts(points),
        opts(options),
        idx(std::move(preset_idx)),
        rng(options.seed) {}

  int dim() const { return pts.cols(); }

  int split_middle(int lo, int hi) const { return lo + (hi - lo + 1) / 2; }

  // Coordinate of largest spread (max - min) over idx[lo, hi).
  int widest_coordinate(int lo, int hi, double* spread_out) const {
    const int d = dim();
    std::vector<double> minv(d, std::numeric_limits<double>::infinity());
    std::vector<double> maxv(d, -std::numeric_limits<double>::infinity());
    for (int i = lo; i < hi; ++i) {
      const double* row = pts.row(idx[i]);
      for (int j = 0; j < d; ++j) {
        minv[j] = std::min(minv[j], row[j]);
        maxv[j] = std::max(maxv[j], row[j]);
      }
    }
    int best = 0;
    double best_spread = -1.0;
    for (int j = 0; j < d; ++j) {
      const double s = maxv[j] - minv[j];
      if (s > best_spread) {
        best_spread = s;
        best = j;
      }
    }
    if (spread_out) *spread_out = best_spread;
    return best;
  }

  // Partition idx[lo, hi) by predicate value <= threshold on `scores`
  // (scores indexed by position in [lo, hi)).  Stable not required.  `scores`
  // is permuted in place alongside idx, so after the call scores[i - lo]
  // still belongs to idx[i] — callers reuse it for the median fallback
  // instead of re-deriving every value.
  int partition_by_score(int lo, int hi, std::vector<double>& scores,
                         double threshold) {
    int i = lo, j = hi - 1;
    while (i <= j) {
      while (i <= j && scores[i - lo] <= threshold) ++i;
      while (i <= j && scores[j - lo] > threshold) --j;
      if (i < j) {
        std::swap(idx[i], idx[j]);
        std::swap(scores[i - lo], scores[j - lo]);
        ++i;
        --j;
      }
    }
    return i;
  }

  // Median split on `scores`: reorders idx[lo, hi) so the lower half of
  // scores comes first.  Always balanced.
  int partition_by_median(int lo, int hi, const std::vector<double>& scores) {
    const int m = hi - lo;
    std::vector<int> order(m);
    for (int i = 0; i < m; ++i) order[i] = i;
    const int half = (m + 1) / 2;
    std::nth_element(order.begin(), order.begin() + half, order.end(),
                     [&](int a, int b) { return scores[a] < scores[b]; });
    std::vector<int> rearranged(m);
    for (int i = 0; i < m; ++i) rearranged[i] = idx[lo + order[i]];
    std::copy(rearranged.begin(), rearranged.end(), idx.begin() + lo);
    return lo + half;
  }

  bool too_unbalanced(int lo, int mid, int hi) const {
    const int a = mid - lo, b = hi - mid;
    const int small = std::min(a, b), large = std::max(a, b);
    return small == 0 || opts.imbalance_ratio * small < large;
  }

  // --- the paper's split rules ---------------------------------------

  int split_kd(int lo, int hi) {
    double spread = 0.0;
    const int coord = widest_coordinate(lo, hi, &spread);
    if (spread <= 0.0) return split_middle(lo, hi);  // all points identical

    const int m = hi - lo;
    std::vector<double> scores(m);
    double mean = 0.0;
    for (int i = 0; i < m; ++i) {
      scores[i] = pts(idx[lo + i], coord);
      mean += scores[i];
    }
    mean /= m;

    int mid = partition_by_score(lo, hi, scores, mean);
    if (too_unbalanced(lo, mid, hi)) {
      // scores moved along with idx, so no re-extraction is needed.
      mid = partition_by_median(lo, hi, scores);
    }
    return mid;
  }

  int split_pca(int lo, int hi) {
    const int d = dim(), m = hi - lo;

    std::vector<double> mu(d, 0.0);
    for (int i = lo; i < hi; ++i) {
      const double* row = pts.row(idx[i]);
      for (int j = 0; j < d; ++j) mu[j] += row[j];
    }
    for (double& v : mu) v /= m;

    // Power iteration on the (implicit) covariance: v <- sum_i c_i (c_i . v).
    std::vector<double> v(d);
    for (auto& e : v) e = rng.normal();
    std::vector<double> w(d);
    for (int it = 0; it < opts.pca_power_iters; ++it) {
      std::fill(w.begin(), w.end(), 0.0);
      for (int i = lo; i < hi; ++i) {
        const double* row = pts.row(idx[i]);
        double proj = 0.0;
        for (int j = 0; j < d; ++j) proj += (row[j] - mu[j]) * v[j];
        for (int j = 0; j < d; ++j) w[j] += proj * (row[j] - mu[j]);
      }
      double norm = 0.0;
      for (double e : w) norm += e * e;
      norm = std::sqrt(norm);
      if (norm <= 1e-300) return split_middle(lo, hi);  // zero variance
      for (int j = 0; j < d; ++j) v[j] = w[j] / norm;
    }

    std::vector<double> scores(m);
    double mean = 0.0;
    for (int i = 0; i < m; ++i) {
      const double* row = pts.row(idx[lo + i]);
      double proj = 0.0;
      for (int j = 0; j < d; ++j) proj += (row[j] - mu[j]) * v[j];
      scores[i] = proj;
      mean += proj;
    }
    mean /= m;

    int mid = partition_by_score(lo, hi, scores, mean);
    if (too_unbalanced(lo, mid, hi)) {
      // scores moved along with idx, so no re-projection is needed.
      mid = partition_by_median(lo, hi, scores);
    }
    return mid;
  }

  int split_two_means(int lo, int hi) {
    const int d = dim(), m = hi - lo;

    // Seeding (paper Section 4.3): first representative uniform, second with
    // probability proportional to the (squared) distance from the first.
    const int first = idx[lo + static_cast<int>(rng.index(m))];
    std::vector<double> dist2(m);
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
      dist2[i] = sqdist(pts.row(idx[lo + i]), pts.row(first), d);
      total += dist2[i];
    }
    if (total <= 0.0) return split_middle(lo, hi);  // all points identical

    int second = first;
    {
      double pick = rng.uniform() * total;
      for (int i = 0; i < m; ++i) {
        pick -= dist2[i];
        if (pick <= 0.0) {
          second = idx[lo + i];
          break;
        }
      }
      if (second == first) second = idx[hi - 1];
    }

    std::vector<double> c0(pts.row(first), pts.row(first) + d);
    std::vector<double> c1(pts.row(second), pts.row(second) + d);
    std::vector<char> assign(m, 0);
    std::vector<double> n0(d), n1(d);  // update-step sums, reused per iter

    for (int it = 0; it < opts.max_lloyd_iters; ++it) {
      bool changed = false;
      // Assignment step (parallel: this is the O(n d) inner loop), two
      // points per pass; an odd last point takes sqdist alone.
#pragma omp parallel for schedule(static) reduction(|| : changed) \
    if (static_cast<long>(m) * d > 16384)
      for (int i = 0; i < m; i += 2) {
        double dist[4];
        const double* row = pts.row(idx[lo + i]);
        if (i + 1 < m) {
          sqdist_two_by_two(row, pts.row(idx[lo + i + 1]), c0.data(),
                            c1.data(), d, dist);
        } else {
          dist[0] = sqdist(row, c0.data(), d);
          dist[1] = sqdist(row, c1.data(), d);
        }
        for (int p = 0; p < 2 && i + p < m; ++p) {
          const char a = dist[2 * p + 1] < dist[2 * p] ? 1 : 0;
          if (a != assign[i + p]) {
            assign[i + p] = a;
            changed = true;
          }
        }
      }
      if (!changed && it > 0) break;

      // Update step.
      std::fill(n0.begin(), n0.end(), 0.0);
      std::fill(n1.begin(), n1.end(), 0.0);
      int cnt0 = 0, cnt1 = 0;
      for (int i = 0; i < m; ++i) {
        const double* row = pts.row(idx[lo + i]);
        if (assign[i] == 0) {
          ++cnt0;
          for (int j = 0; j < d; ++j) n0[j] += row[j];
        } else {
          ++cnt1;
          for (int j = 0; j < d; ++j) n1[j] += row[j];
        }
      }
      if (cnt0 == 0 || cnt1 == 0) break;  // degenerate; fall through
      for (int j = 0; j < d; ++j) {
        c0[j] = n0[j] / cnt0;
        c1[j] = n1[j] / cnt1;
      }
    }

    // Partition by assignment (cluster 0 first).
    std::vector<double> scores(m);
    for (int i = 0; i < m; ++i) scores[i] = assign[i];
    int mid = partition_by_score(lo, hi, scores, 0.5);
    if (mid == lo || mid == hi) return split_middle(lo, hi);
    return mid;
  }

  int split(OrderingMethod method, int lo, int hi) {
    switch (method) {
      case OrderingMethod::kNatural:
        return split_middle(lo, hi);
      case OrderingMethod::kKD:
        return split_kd(lo, hi);
      case OrderingMethod::kPCA:
        return split_pca(lo, hi);
      case OrderingMethod::kTwoMeans:
        return split_two_means(lo, hi);
      case OrderingMethod::kAgglomerative:
        break;  // handled separately
    }
    throw std::logic_error("split: unreachable");
  }
};

// Pop node ids off `stack` and keep bipartitioning until every leaf obeys
// leaf_size.  Children are appended in creation order, so a parent's id is
// always smaller than its children's (levels_bottom_up relies on this).
void refine(Builder& b, OrderingMethod method, std::vector<ClusterNode>& nodes,
            std::vector<int>& stack) {
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const int lo = nodes[id].lo, hi = nodes[id].hi;
    if (hi - lo <= b.opts.leaf_size) continue;

    const int mid = b.split(method, lo, hi);
    assert(mid > lo && mid < hi);

    ClusterNode left, right;
    left.lo = lo;
    left.hi = mid;
    left.parent = id;
    right.lo = mid;
    right.hi = hi;
    right.parent = id;
    nodes[id].left = static_cast<int>(nodes.size());
    nodes.push_back(left);
    nodes[id].right = static_cast<int>(nodes.size());
    nodes.push_back(right);
    stack.push_back(nodes[id].left);
    stack.push_back(nodes[id].right);
  }
}

// Sieved build: full-quality tree on a deterministic sample of m points, one
// linear assignment pass for the other n - m, then local re-splits of any
// leaf the assignment overfilled.
ClusterTree build_sieved_tree(const la::Matrix& points, OrderingMethod method,
                              const OrderingOptions& opts, int m) {
  const int n = points.rows();
  const int d = points.cols();

  // (1) Deterministic sample of m original indices, ascending.  The sample
  // draw uses its own stream so it never interleaves with the Builder's.
  util::Rng srng(opts.seed ^ 0x73696576656421ull);
  std::vector<int> sample;
  {
    auto raw = srng.sample_without_replacement(static_cast<std::size_t>(n),
                                               static_cast<std::size_t>(m));
    sample.assign(raw.begin(), raw.end());
    std::sort(sample.begin(), sample.end());
  }

  // (2) Full-quality tree on the sample (annotates sample geometry, which
  // the descent below reads).
  OrderingOptions sopts = opts;
  sopts.sieve = 0;
  const ClusterTree stree =
      build_cluster_tree(points.rows_subset(sample), method, sopts);
  const std::vector<ClusterNode>& snodes = stree.nodes();

  // Sample leaves in lo-order; map node id -> leaf ordinal and sample
  // position -> leaf ordinal.
  const std::vector<int> sleaves = stree.leaves();
  const int num_leaves = static_cast<int>(sleaves.size());
  std::vector<int> leaf_ord_of_node(snodes.size(), -1);
  std::vector<int> leaf_ord_of_pos(m, -1);
  for (int l = 0; l < num_leaves; ++l) {
    leaf_ord_of_node[sleaves[l]] = l;
    for (int p = snodes[sleaves[l]].lo; p < snodes[sleaves[l]].hi; ++p) {
      leaf_ord_of_pos[p] = l;
    }
  }

  // pos_of_orig[i] = permuted sample position of original index i, or -1.
  std::vector<int> pos_of_orig(n, -1);
  for (int p = 0; p < m; ++p) pos_of_orig[sample[stree.perm()[p]]] = p;

  // (3) Assign every point to a sample leaf.  Sample points keep their own
  // leaf; the rest descend root-to-leaf toward the nearer child centroid
  // (ties go left).  Pure per-point reads + one write each: parallel and
  // bit-deterministic under any schedule or thread count.
  std::vector<int> leaf_ord(n);
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) {
    if (pos_of_orig[i] >= 0) {
      leaf_ord[i] = leaf_ord_of_pos[pos_of_orig[i]];
      continue;
    }
    const double* row = points.row(i);
    int id = 0;
    while (!snodes[id].is_leaf()) {
      const double dl =
          sqdist(row, snodes[snodes[id].left].centroid.data(), d);
      const double dr =
          sqdist(row, snodes[snodes[id].right].centroid.data(), d);
      id = dr < dl ? snodes[id].right : snodes[id].left;
    }
    leaf_ord[i] = leaf_ord_of_node[id];
  }

  // (4) Counting sort into the final permutation: leaves left to right;
  // inside a leaf, sample points first (in sample-tree order), then assigned
  // points by ascending original index.
  std::vector<int> offset(num_leaves + 1, 0);
  for (int i = 0; i < n; ++i) ++offset[leaf_ord[i] + 1];
  for (int l = 0; l < num_leaves; ++l) offset[l + 1] += offset[l];
  std::vector<int> idx(n);
  std::vector<int> cursor(offset.begin(), offset.end() - 1);
  for (int p = 0; p < m; ++p) {
    idx[cursor[leaf_ord_of_pos[p]]++] = sample[stree.perm()[p]];
  }
  for (int i = 0; i < n; ++i) {
    if (pos_of_orig[i] < 0) idx[cursor[leaf_ord[i]]++] = i;
  }

  // (5) Copy the sample-tree structure and remap its [lo, hi) ranges from
  // sample positions to full positions.  Children carry larger ids than
  // their parents, so a descending pass sees leaves before the internal
  // nodes that cover them.
  std::vector<ClusterNode> nodes(snodes.begin(), snodes.end());
  for (int id = static_cast<int>(nodes.size()) - 1; id >= 0; --id) {
    if (nodes[id].is_leaf()) {
      const int l = leaf_ord_of_node[id];
      nodes[id].lo = offset[l];
      nodes[id].hi = offset[l + 1];
    } else {
      nodes[id].lo = nodes[nodes[id].left].lo;
      nodes[id].hi = nodes[nodes[id].right].hi;
    }
  }

  // (6) Re-split leaves the assignment overfilled, with the same rules on
  // the full point set.  AGG sample trees refine with 2MN: a bottom-up merge
  // has no top-down split rule to replay.
  Builder b(points, opts, std::move(idx));
  std::vector<int> stack;
  for (int id = 0; id < static_cast<int>(nodes.size()); ++id) {
    if (nodes[id].is_leaf() && nodes[id].size() > opts.leaf_size) {
      stack.push_back(id);
    }
  }
  const OrderingMethod refine_method = method == OrderingMethod::kAgglomerative
                                           ? OrderingMethod::kTwoMeans
                                           : method;
  refine(b, refine_method, nodes, stack);

  annotate_geometry(nodes, points, b.idx);
  return ClusterTree(std::move(nodes), std::move(b.idx), opts.leaf_size);
}

}  // namespace

std::string ordering_name(OrderingMethod m) {
  switch (m) {
    case OrderingMethod::kNatural:
      return "NP";
    case OrderingMethod::kKD:
      return "KD";
    case OrderingMethod::kPCA:
      return "PCA";
    case OrderingMethod::kTwoMeans:
      return "2MN";
    case OrderingMethod::kAgglomerative:
      return "AGG";
  }
  return "?";
}

OrderingMethod ordering_from_name(const std::string& name) {
  if (name == "NP" || name == "natural") return OrderingMethod::kNatural;
  if (name == "KD" || name == "kd") return OrderingMethod::kKD;
  if (name == "PCA" || name == "pca") return OrderingMethod::kPCA;
  if (name == "2MN" || name == "2mn" || name == "two_means") {
    return OrderingMethod::kTwoMeans;
  }
  if (name == "AGG" || name == "agg") return OrderingMethod::kAgglomerative;
  throw std::invalid_argument("unknown ordering: " + name);
}

ClusterTree build_cluster_tree(const la::Matrix& points, OrderingMethod method,
                               const OrderingOptions& opts) {
  const int n = points.rows();
  if (n == 0) return ClusterTree({}, {}, opts.leaf_size);
  if (opts.leaf_size < 1) {
    throw std::invalid_argument("build_cluster_tree: leaf_size < 1");
  }
  if (opts.sieve > 0 && method != OrderingMethod::kNatural) {
    // Keep the sample large enough that its tree has some shape to replay.
    const int m = std::max(opts.sieve, 4 * opts.leaf_size);
    if (n > m) return build_sieved_tree(points, method, opts, m);
  }
  if (method == OrderingMethod::kAgglomerative) {
    return build_agglomerative_tree(points, opts);
  }

  Builder b(points, opts);
  std::vector<ClusterNode> nodes;
  nodes.reserve(2 * (n / opts.leaf_size + 1));

  // Iterative top-down refinement (explicit stack: skewed splits can make the
  // tree deep, and leaf ranges are only final once their node is processed).
  ClusterNode root;
  root.lo = 0;
  root.hi = n;
  nodes.push_back(root);
  std::vector<int> stack{0};
  refine(b, method, nodes, stack);

  // Geometry on the permuted points (what downstream layers see), read
  // through the permutation so no n×d copy is materialized.
  annotate_geometry(nodes, points, b.idx);
  return ClusterTree(std::move(nodes), std::move(b.idx), opts.leaf_size);
}

}  // namespace khss::cluster
