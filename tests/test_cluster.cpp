// Tests for the clustering/reordering preprocessing (Section 4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace cl = khss::cluster;
namespace la = khss::la;

namespace {

la::Matrix clustered_points(int n, int d, int clusters, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.num_classes = clusters;
  spec.clusters_per_class = 1;
  spec.center_spread = 8.0;
  return khss::data::make_blobs(spec, rng).points;
}

}  // namespace

using Method = cl::OrderingMethod;

class AllOrderings : public ::testing::TestWithParam<Method> {};

TEST_P(AllOrderings, TreeIsValid) {
  const Method m = GetParam();
  la::Matrix pts = clustered_points(500, 5, 4, 11);
  cl::OrderingOptions opts;
  opts.leaf_size = 16;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, m, opts);

  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.num_points(), 500);
  EXPECT_LE(tree.max_leaf_points(), 16);
  EXPECT_GE(tree.num_leaves(), 500 / 16);

  // perm/iperm are inverses.
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(tree.iperm()[tree.perm()[i]], i);
  }
}

TEST_P(AllOrderings, PostorderVisitsChildrenFirst) {
  const Method m = GetParam();
  la::Matrix pts = clustered_points(300, 3, 3, 13);
  cl::ClusterTree tree = cl::build_cluster_tree(pts, m, {});
  std::set<int> seen;
  for (int id : tree.postorder()) {
    const auto& nd = tree.node(id);
    if (!nd.is_leaf()) {
      EXPECT_TRUE(seen.count(nd.left));
      EXPECT_TRUE(seen.count(nd.right));
    }
    seen.insert(id);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), tree.num_nodes());
}

TEST_P(AllOrderings, GeometryAnnotated) {
  const Method m = GetParam();
  la::Matrix pts = clustered_points(200, 4, 2, 17);
  cl::ClusterTree tree = cl::build_cluster_tree(pts, m, {});
  la::Matrix permuted = cl::apply_row_permutation(pts, tree.perm());
  for (const auto& nd : tree.nodes()) {
    ASSERT_EQ(nd.centroid.size(), 4u);
    // Every point of the node lies within its radius of the centroid.
    for (int i = nd.lo; i < nd.hi; ++i) {
      double dist2 = 0.0;
      for (int j = 0; j < 4; ++j) {
        const double dd = permuted(i, j) - nd.centroid[j];
        dist2 += dd * dd;
      }
      EXPECT_LE(std::sqrt(dist2), nd.radius + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, AllOrderings,
                         ::testing::Values(Method::kNatural, Method::kKD,
                                           Method::kPCA, Method::kTwoMeans,
                                           Method::kAgglomerative));

TEST(NaturalOrdering, IdentityPermutationAndBalancedTree) {
  la::Matrix pts = clustered_points(256, 3, 2, 19);
  cl::OrderingOptions opts;
  opts.leaf_size = 16;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, Method::kNatural, opts);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(tree.perm()[i], i);
  // 256 points, leaf 16 => complete tree of depth 5 (root level 1).
  EXPECT_EQ(tree.depth(), 5);
  EXPECT_EQ(tree.num_leaves(), 16);
}

TEST(KdOrdering, SeparatesTwoDistantClusters) {
  // Two blobs far apart on coordinate 0: the first split must separate them.
  khss::util::Rng rng(23);
  la::Matrix pts(100, 2);
  for (int i = 0; i < 100; ++i) {
    pts(i, 0) = (i % 2 == 0 ? -50.0 : 50.0) + rng.normal();
    pts(i, 1) = rng.normal();
  }
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kKD, {});
  la::Matrix permuted = cl::apply_row_permutation(pts, tree.perm());
  const auto& root = tree.node(tree.root());
  const auto& left = tree.node(root.left);
  // All points in the left child must share the sign of coordinate 0.
  const double sign = permuted(left.lo, 0) > 0 ? 1.0 : -1.0;
  for (int i = left.lo; i < left.hi; ++i) {
    EXPECT_GT(sign * permuted(i, 0), 0.0);
  }
}

TEST(KdOrdering, MedianFallbackKeepsBalanceWithOutlier) {
  // One enormous outlier drags the mean: without the fallback the split
  // would put a single point on one side at every level.
  la::Matrix pts(200, 1);
  for (int i = 0; i < 199; ++i) pts(i, 0) = i * 1e-3;
  pts(199, 0) = 1e9;
  cl::OrderingOptions opts;
  opts.leaf_size = 8;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kKD, opts);
  EXPECT_TRUE(tree.validate());
  // Balanced-ish: depth far below the 200/8 chain bound.
  EXPECT_LE(tree.depth(), 12);
}

TEST(PcaOrdering, SplitsAlongDominantDirection) {
  // Points spread along the diagonal (1,1)/sqrt(2); PCA should split along
  // it even though each coordinate alone has the same spread.
  khss::util::Rng rng(29);
  la::Matrix pts(300, 2);
  for (int i = 0; i < 300; ++i) {
    const double t = (i < 150 ? -10.0 : 10.0) + rng.normal();
    pts(i, 0) = t + 0.1 * rng.normal();
    pts(i, 1) = t + 0.1 * rng.normal();
  }
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kPCA, {});
  la::Matrix permuted = cl::apply_row_permutation(pts, tree.perm());
  const auto& root = tree.node(tree.root());
  const auto& left = tree.node(root.left);
  const double sign = permuted(left.lo, 0) > 0 ? 1.0 : -1.0;
  for (int i = left.lo; i < left.hi; ++i) {
    EXPECT_GT(sign * permuted(i, 0), 0.0);
  }
  // Both clusters have 150 points; split should be balanced.
  EXPECT_EQ(left.size(), 150);
}

TEST(TwoMeans, SeparatesWellSeparatedBlobs) {
  la::Matrix pts = clustered_points(400, 6, 2, 31);
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kTwoMeans, {});
  EXPECT_TRUE(tree.validate());
  const auto& root = tree.node(tree.root());
  const auto& l = tree.node(root.left);
  const auto& r = tree.node(root.right);
  // Inter-centroid distance should far exceed the child radii sum scaled
  // down — i.e. the two blobs ended up in different children.
  double dist = 0.0;
  for (std::size_t j = 0; j < l.centroid.size(); ++j) {
    const double d = l.centroid[j] - r.centroid[j];
    dist += d * d;
  }
  dist = std::sqrt(dist);
  EXPECT_GT(dist, 0.5 * std::max(l.radius, r.radius));
}

TEST(TwoMeans, DeterministicGivenSeed) {
  la::Matrix pts = clustered_points(300, 4, 3, 37);
  cl::OrderingOptions opts;
  opts.seed = 99;
  cl::ClusterTree a = cl::build_cluster_tree(pts, Method::kTwoMeans, opts);
  cl::ClusterTree b = cl::build_cluster_tree(pts, Method::kTwoMeans, opts);
  EXPECT_EQ(a.perm(), b.perm());
}

namespace {

// FNV-1a over a tree's permutation and every node's range and children.
std::uint64_t tree_hash(const cl::ClusterTree& t) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (int p : t.perm()) mix(p);
  for (int id = 0; id < t.num_nodes(); ++id) {
    mix(t.node(id).lo);
    mix(t.node(id).hi);
    mix(t.node(id).left);
    mix(t.node(id).right);
  }
  return h;
}

}  // namespace

TEST(TwoMeans, TreesKeepTheirPinnedBits) {
  // The assignment step measures two points against both centroids in one
  // pass (four independent sums, each in sqdist's order), so every
  // assignment, tree and permutation stays that of the one-distance-at-a-
  // time loop, whose trees these hashes were taken from.  d = 784 is the
  // MNIST twin's dimension; n = 1531 with leaf size 45 gives odd node sizes,
  // whose last point takes the single-point path; the sieved build covers
  // the sample tree, the descent and the leaf re-splits.
  const la::Matrix pts = clustered_points(1531, 784, 5, 41);
  cl::OrderingOptions opts;
  opts.leaf_size = 45;
  opts.seed = 3;
  cl::OrderingOptions sieved = opts;
  sieved.sieve = 400;
  const int saved = khss::util::max_threads();
  for (int threads : {1, 3}) {
    khss::util::set_threads(threads);
    EXPECT_EQ(tree_hash(cl::build_cluster_tree(pts, Method::kTwoMeans, opts)),
              0xa01512b3ac0b9976ull)
        << threads << " threads";
    EXPECT_EQ(tree_hash(cl::build_cluster_tree(pts, Method::kTwoMeans, sieved)),
              0x19e9428e24c3152cull)
        << threads << " threads, sieved";
  }
  khss::util::set_threads(saved);
}

TEST(TwoMeans, DegenerateIdenticalPointsTerminates) {
  la::Matrix pts(64, 3);  // all zeros
  cl::OrderingOptions opts;
  opts.leaf_size = 4;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kTwoMeans, opts);
  EXPECT_TRUE(tree.validate());
  EXPECT_LE(tree.max_leaf_points(), 4);
}

TEST(Agglomerative, RefusesHugeInput) {
  la::Matrix pts(8193, 2);
  EXPECT_THROW(cl::build_cluster_tree(pts, Method::kAgglomerative, {}),
               std::invalid_argument);
}

TEST(Agglomerative, MergesNearestClustersFirst) {
  // Three groups on a line: {0,1}, {10,11}, {100}: the leaf order must keep
  // group members adjacent.
  la::Matrix pts(5, 1);
  pts(0, 0) = 0.0;
  pts(1, 0) = 1.0;
  pts(2, 0) = 10.0;
  pts(3, 0) = 11.0;
  pts(4, 0) = 100.0;
  cl::OrderingOptions opts;
  opts.leaf_size = 1;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, Method::kAgglomerative, opts);
  EXPECT_TRUE(tree.validate());
  const auto& perm = tree.perm();
  auto pos = [&](int orig) {
    for (int i = 0; i < 5; ++i) {
      if (perm[i] == orig) return i;
    }
    return -1;
  };
  EXPECT_EQ(std::abs(pos(0) - pos(1)), 1);
  EXPECT_EQ(std::abs(pos(2) - pos(3)), 1);
}

TEST(OrderingNames, RoundTrip) {
  for (Method m : {Method::kNatural, Method::kKD, Method::kPCA,
                   Method::kTwoMeans, Method::kAgglomerative}) {
    EXPECT_EQ(cl::ordering_from_name(cl::ordering_name(m)), m);
  }
  EXPECT_THROW(cl::ordering_from_name("bogus"), std::invalid_argument);
}

TEST(ClusterTree, EmptyInput) {
  la::Matrix pts(0, 3);
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kKD, {});
  EXPECT_EQ(tree.num_points(), 0);
  EXPECT_TRUE(tree.validate());
}

TEST(ClusterTree, SingleLeafWhenSmall) {
  la::Matrix pts = clustered_points(10, 2, 1, 41);
  cl::OrderingOptions opts;
  opts.leaf_size = 16;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kTwoMeans, opts);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_TRUE(tree.node(0).is_leaf());
}

// ---------------------------------------------------------------------------
// Sieved ordering (OrderingOptions::sieve): cluster a sample, assign the
// rest by nearest-centroid descent, refine overfull leaves.
// ---------------------------------------------------------------------------

class SievedOrderings : public ::testing::TestWithParam<Method> {};

TEST_P(SievedOrderings, TreeIsValidAndRespectsLeafSize) {
  const Method m = GetParam();
  la::Matrix pts = clustered_points(3000, 5, 4, 23);
  cl::OrderingOptions opts;
  opts.leaf_size = 32;
  opts.sieve = 256;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, m, opts);

  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.num_points(), 3000);
  EXPECT_LE(tree.max_leaf_points(), 32);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(tree.iperm()[tree.perm()[i]], i);
  }
}

TEST_P(SievedOrderings, BitDeterministicAcrossRunsAndThreadCounts) {
  const Method m = GetParam();
  la::Matrix pts = clustered_points(2000, 4, 3, 29);
  cl::OrderingOptions opts;
  opts.leaf_size = 32;
  opts.sieve = 256;
  opts.seed = 7;

  khss::util::set_threads(1);
  cl::ClusterTree a = cl::build_cluster_tree(pts, m, opts);
  cl::ClusterTree b = cl::build_cluster_tree(pts, m, opts);
  khss::util::set_threads(2);
  cl::ClusterTree c = cl::build_cluster_tree(pts, m, opts);
  khss::util::set_threads(0);

  EXPECT_EQ(a.perm(), b.perm());
  EXPECT_EQ(a.perm(), c.perm());
  ASSERT_EQ(a.num_nodes(), c.num_nodes());
  for (int id = 0; id < a.num_nodes(); ++id) {
    EXPECT_EQ(a.node(id).lo, c.node(id).lo);
    EXPECT_EQ(a.node(id).hi, c.node(id).hi);
    EXPECT_EQ(a.node(id).left, c.node(id).left);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SievedOrderings,
                         ::testing::Values(Method::kKD, Method::kPCA,
                                           Method::kTwoMeans));

TEST(SievedOrdering, OffIsTheDefaultAndSmallNIsUnaffected) {
  // sieve only engages above max(sieve, 4 * leaf_size) points: a small input
  // must produce the bit-identical unsieved tree even with the knob set.
  la::Matrix pts = clustered_points(500, 4, 3, 31);
  cl::OrderingOptions off;
  off.leaf_size = 16;
  cl::OrderingOptions on = off;
  on.sieve = 600;  // > n => full method runs
  cl::ClusterTree a = cl::build_cluster_tree(pts, Method::kTwoMeans, off);
  cl::ClusterTree b = cl::build_cluster_tree(pts, Method::kTwoMeans, on);
  EXPECT_EQ(a.perm(), b.perm());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
}

TEST(SievedOrdering, NaturalIgnoresTheKnob) {
  la::Matrix pts = clustered_points(2048, 3, 2, 37);
  cl::OrderingOptions opts;
  opts.leaf_size = 16;
  opts.sieve = 128;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kNatural, opts);
  for (int i = 0; i < 2048; ++i) EXPECT_EQ(tree.perm()[i], i);
}

TEST(SievedOrdering, AgglomerativeBecomesLegalAboveItsCutoff) {
  // Unsieved AGG refuses n > 8192; the sieve runs AGG on the sample only,
  // so the same call succeeds with the knob set.
  la::Matrix pts = clustered_points(8300, 3, 4, 41);
  cl::OrderingOptions opts;
  opts.leaf_size = 64;
  opts.sieve = 512;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, Method::kAgglomerative, opts);
  EXPECT_TRUE(tree.validate());
  EXPECT_LE(tree.max_leaf_points(), 64);
  // The unsieved path still refuses.
  cl::OrderingOptions off;
  off.leaf_size = 64;
  EXPECT_THROW(cl::build_cluster_tree(pts, Method::kAgglomerative, off),
               std::invalid_argument);
}

TEST(SievedOrdering, SampleLeavesKeepGeometryAnnotations) {
  la::Matrix pts = clustered_points(4000, 4, 4, 43);
  cl::OrderingOptions opts;
  opts.leaf_size = 32;
  opts.sieve = 400;
  cl::ClusterTree tree = cl::build_cluster_tree(pts, Method::kTwoMeans, opts);
  // Every node's centroid/radius must describe the FULL point set it owns
  // (the H-matrix admissibility test relies on this): verify against a
  // direct recomputation on a few nodes.
  const auto& perm = tree.perm();
  for (int id : {0, tree.num_nodes() / 2, tree.num_nodes() - 1}) {
    const auto& nd = tree.node(id);
    std::vector<double> c(pts.cols(), 0.0);
    for (int p = nd.lo; p < nd.hi; ++p) {
      for (int j = 0; j < pts.cols(); ++j) c[j] += pts(perm[p], j);
    }
    const double inv = 1.0 / nd.size();
    for (int j = 0; j < pts.cols(); ++j) {
      EXPECT_NEAR(nd.centroid[j], c[j] * inv, 1e-9);
    }
  }
}
