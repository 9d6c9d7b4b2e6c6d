// Edge-case and small-module coverage: formatter corners, RNG boundary
// arguments, kernel tile boundaries, tiny-input behaviour of the
// compression stack, and the corners of the batched serving path
// (predict::BatchPredictor::predict_batch).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "la/blas.hpp"
#include "predict/batch_predictor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;
namespace u = khss::util;

TEST(TableFmt, ScientificAndPrecision) {
  EXPECT_EQ(u::Table::fmt_sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(u::Table::fmt(1.0 / 3.0, 5), "0.33333");
  EXPECT_EQ(u::Table::fmt_pct(1.0, 0), "100%");
}

TEST(Rng, IndexOfOneAlwaysZero) {
  u::Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.index(1), 0u);
}

TEST(Rng, PermutationOfZeroAndOne) {
  u::Rng rng(4);
  EXPECT_TRUE(rng.permutation(0).empty());
  auto p = rng.permutation(1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 0);
}

TEST(Kernel, MultiplyAtTileBoundaries) {
  // n straddling the 128-wide tile: 127, 128, 129 must all agree with dense.
  for (int n : {127, 128, 129, 257}) {
    u::Rng rng(100 + n);
    la::Matrix pts(n, 3);
    rng.fill_normal(pts.data(), pts.size());
    kn::KernelMatrix km(pts, {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.4);
    la::Matrix x(n, 2);
    rng.fill_normal(x.data(), x.size());
    la::Matrix y = km.multiply(x);
    la::Matrix ref = la::matmul(km.dense(), x);
    EXPECT_LT(la::diff_f(y, ref), 1e-10 * (1.0 + la::norm_f(ref))) << n;
  }
}

TEST(Kernel, SinglePointMatrix) {
  la::Matrix pts(1, 4);
  pts(0, 0) = 1.0;
  kn::KernelMatrix km(pts, {}, 2.0);
  EXPECT_NEAR(km.entry(0, 0), 3.0, 1e-14);
  la::Matrix d = km.dense();
  EXPECT_EQ(d.rows(), 1);
  EXPECT_NEAR(d(0, 0), 3.0, 1e-14);
}

TEST(HSS, TwoLeafMinimalTree) {
  // The smallest non-trivial HSS: 32 points, leaf 16 => one internal node.
  u::Rng rng(7);
  la::Matrix pts(32, 2);
  rng.fill_normal(pts.data(), pts.size());
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, copts);
  ASSERT_EQ(tree.num_nodes(), 3);
  kn::KernelMatrix km(pts, {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
  hs::HSSOptions opts;
  opts.rtol = 1e-10;
  hs::HSSMatrix hss = hs::build_hss_from_dense(km.dense(), tree, opts);
  EXPECT_TRUE(hss.validate());
  EXPECT_LT(la::diff_f(hss.dense(), km.dense()),
            1e-7 * la::norm_f(km.dense()));

  hs::ULVFactorization ulv(hss);
  la::Vector b(32, 1.0);
  la::Vector x = ulv.solve(b);
  EXPECT_LT(ulv.relative_residual(x, b), 1e-9);
}

TEST(HSS, MatmatZeroColumns) {
  u::Rng rng(8);
  la::Matrix pts(64, 2);
  rng.fill_normal(pts.data(), pts.size());
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, {});
  kn::KernelMatrix km(pts, {}, 0.5);
  hs::HSSMatrix hss = hs::build_hss_from_dense(km.dense(), tree, {});
  la::Matrix x(64, 0);
  la::Matrix y = hss.matmat(x);
  EXPECT_EQ(y.rows(), 64);
  EXPECT_EQ(y.cols(), 0);
}

TEST(Cluster, LeafSizeOne) {
  u::Rng rng(9);
  la::Matrix pts(20, 2);
  rng.fill_normal(pts.data(), pts.size());
  cl::OrderingOptions opts;
  opts.leaf_size = 1;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kKD, opts);
  EXPECT_TRUE(tree.validate());
  EXPECT_EQ(tree.max_leaf_points(), 1);
  EXPECT_EQ(tree.num_leaves(), 20);
}

namespace {

namespace pr = khss::predict;

// Small training-side fixture for the predict_batch corner cases.
struct ServingFixture {
  ServingFixture(int n, int c, std::uint64_t seed) : weights(n, c) {
    u::Rng rng(seed);
    la::Matrix pts(n, 3);
    rng.fill_normal(pts.data(), pts.size());
    kernel = std::make_unique<kn::KernelMatrix>(
        pts, kn::KernelParams{kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.7);
    rng.fill_normal(weights.data(), weights.size());
  }

  std::unique_ptr<kn::KernelMatrix> kernel;
  la::Matrix weights;
};

// Per-point reference over one weight column (exactly the pre-serving path;
// the cross kernel carries no lambda shift).
double reference_score(const kn::KernelMatrix& kernel, const la::Matrix& pts,
                       int row, const la::Matrix& w, int col) {
  la::Vector wc(w.rows());
  for (int i = 0; i < w.rows(); ++i) wc[i] = w(i, col);
  la::Matrix point = pts.block(row, 0, 1, pts.cols());
  return kernel.cross_times_vector(point, wc)[0];
}

}  // namespace

TEST(PredictBatch, EmptyBatch) {
  ServingFixture fx(10, 3, 50);
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  la::Matrix scores(5, 5);  // stale shape must be overwritten
  pred.predict_batch(la::Matrix(0, 3), scores);
  EXPECT_EQ(scores.rows(), 0);
  EXPECT_EQ(scores.cols(), 3);
  EXPECT_EQ(pred.stats().batches, 1);
  EXPECT_EQ(pred.stats().points, 0);
  EXPECT_EQ(pred.stats().kernel_evals, 0);
}

TEST(PredictBatch, SinglePointMatchesPerPointPath) {
  ServingFixture fx(12, 2, 51);
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  u::Rng rng(52);
  la::Matrix point(1, 3);
  rng.fill_normal(point.data(), point.size());
  la::Matrix scores = pred.predict(point);
  ASSERT_EQ(scores.rows(), 1);
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(scores(0, c),
                reference_score(*fx.kernel, point, 0, fx.weights, c), 1e-12);
  }
}

TEST(PredictBatch, BatchLargerThanTrainingSet) {
  ServingFixture fx(8, 2, 53);
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  u::Rng rng(54);
  la::Matrix test(50, 3);  // m >> n
  rng.fill_normal(test.data(), test.size());
  la::Matrix scores = pred.predict(test);
  ASSERT_EQ(scores.rows(), 50);
  for (int i = 0; i < 50; ++i) {
    for (int c = 0; c < 2; ++c) {
      const double ref = reference_score(*fx.kernel, test, i, fx.weights, c);
      EXPECT_NEAR(scores(i, c), ref, 1e-12 * (1.0 + std::fabs(ref)));
    }
  }
}

TEST(PredictBatch, ZeroWeightColumnsArePruned) {
  ServingFixture fx(20, 3, 55);
  // Zero out rows 3..9 across every output: pruned-Nystrom-style columns.
  for (int j = 3; j < 10; ++j) {
    for (int c = 0; c < 3; ++c) fx.weights(j, c) = 0.0;
  }
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  EXPECT_EQ(pred.support_size(), 13);

  u::Rng rng(56);
  la::Matrix test(9, 3);
  rng.fill_normal(test.data(), test.size());
  la::Matrix scores = pred.predict(test);
  // Pruning only skips exact-zero contributions: scores still match the
  // unpruned per-point reference, and the eval counter reflects the support.
  for (int i = 0; i < test.rows(); ++i) {
    for (int c = 0; c < 3; ++c) {
      const double ref = reference_score(*fx.kernel, test, i, fx.weights, c);
      EXPECT_NEAR(scores(i, c), ref, 1e-12 * (1.0 + std::fabs(ref)));
    }
  }
  EXPECT_EQ(pred.stats().kernel_evals, 9l * 13);
}

TEST(PredictBatch, AllZeroWeightsGiveZeroScores) {
  ServingFixture fx(10, 2, 57);
  fx.weights.fill(0.0);
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  EXPECT_EQ(pred.support_size(), 0);
  u::Rng rng(58);
  la::Matrix test(6, 3);
  rng.fill_normal(test.data(), test.size());
  la::Matrix scores = pred.predict(test);
  ASSERT_EQ(scores.rows(), 6);
  for (int i = 0; i < 6; ++i) {
    for (int c = 0; c < 2; ++c) EXPECT_EQ(scores(i, c), 0.0);
  }
}

TEST(PredictBatch, ShapeMismatchesThrow) {
  ServingFixture fx(10, 2, 59);
  EXPECT_THROW(pr::BatchPredictor(*fx.kernel, la::Matrix(9, 2)),
               std::invalid_argument);
  pr::BatchPredictor pred(*fx.kernel, fx.weights);
  la::Matrix scores;
  EXPECT_THROW(pred.predict_batch(la::Matrix(4, 5), scores),
               std::invalid_argument);
}

TEST(Blas, GemvEmptyMatrix) {
  la::Matrix a(0, 0);
  la::Vector x, y;
  la::gemv(1.0, a, la::Trans::kNo, x, 0.0, y);  // must not crash
  EXPECT_TRUE(y.empty());
}

TEST(Matrix, SubsetEmptySelection) {
  la::Matrix m{{1, 2}, {3, 4}};
  la::Matrix r = m.rows_subset({});
  EXPECT_EQ(r.rows(), 0);
  EXPECT_EQ(r.cols(), 2);
  la::Matrix c = m.cols_subset({});
  EXPECT_EQ(c.cols(), 0);
}
