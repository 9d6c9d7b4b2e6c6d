// Tests for the ULV factorization/solve against dense references.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

struct Case {
  cl::ClusterTree tree;
  la::Matrix dense;
};

Case kernel_case(int n, int d, double h, double lambda, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.num_classes = 4;
  spec.center_spread = 6.0;
  auto ds = khss::data::make_blobs(spec, rng);

  Case c;
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  c.tree = cl::build_cluster_tree(ds.points, cl::OrderingMethod::kTwoMeans,
                                  copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, c.tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, h, 2, 1.0}, lambda);
  c.dense = km.dense();
  return c;
}

la::Vector random_vector(int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

}  // namespace

class ULVSizes : public ::testing::TestWithParam<int> {};

TEST_P(ULVSizes, SolvesShiftedKernelSystem) {
  const int n = GetParam();
  Case c = kernel_case(n, 4, 1.0, 2.0, 100 + n);
  hs::HSSOptions opts;
  opts.rtol = 1e-9;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, opts);
  hs::ULVFactorization ulv(hss);

  la::Vector b = random_vector(n, n);
  la::Vector x = ulv.solve(b);

  // Residual against the *dense* matrix: both compression and solve must be
  // accurate at this tight tolerance.
  la::Vector ax = la::matvec(c.dense, x);
  double num = 0.0, den = 0.0;
  for (int i = 0; i < n; ++i) {
    num += (ax[i] - b[i]) * (ax[i] - b[i]);
    den += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ULVSizes,
                         ::testing::Values(32, 64, 100, 256, 777, 1024));

TEST(ULV, MatchesDenseLUSolution) {
  Case c = kernel_case(300, 5, 1.0, 3.0, 1);
  hs::HSSOptions opts;
  opts.rtol = 1e-10;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, opts);
  hs::ULVFactorization ulv(hss);

  la::Vector b = random_vector(300, 2);
  la::Vector x = ulv.solve(b);
  la::LUFactor lu(c.dense);
  la::Vector xref = lu.solve(b);
  for (int i = 0; i < 300; ++i) EXPECT_NEAR(x[i], xref[i], 1e-5);
}

TEST(ULV, MultipleRhsConsistent) {
  Case c = kernel_case(200, 4, 1.0, 1.5, 3);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});
  hs::ULVFactorization ulv(hss);

  khss::util::Rng rng(4);
  la::Matrix b(200, 4);
  rng.fill_normal(b.data(), b.size());
  la::Matrix x = ulv.solve(b);

  for (int col = 0; col < 4; ++col) {
    la::Vector bc(200);
    for (int i = 0; i < 200; ++i) bc[i] = b(i, col);
    la::Vector xc = ulv.solve(bc);
    for (int i = 0; i < 200; ++i) EXPECT_NEAR(x(i, col), xc[i], 1e-10);
  }
}

// The task-DAG elimination schedule must reproduce the level sweep's factor
// bit-for-bit: per node the work is the same fixed serial sequence, only the
// order independent nodes run in differs (DESIGN.md "Parallel hierarchical
// solve").  leaf_size 16 at n = 512 gives a tree of >= 4 levels, so the DAG
// actually chains across depths.
TEST(ULV, TaskDagMatchesLevelSweepBitwise) {
  Case c = kernel_case(512, 3, 1.2, 1e-2, 77);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, opts);

  hs::ULVFactorization dag(hss, hs::ULVSchedule::kTaskDag);
  hs::ULVFactorization lvl(hss, hs::ULVSchedule::kLevelSweep);

  khss::util::Rng rng(78);
  la::Matrix b(512, 6);
  rng.fill_normal(b.data(), b.size());
  la::Matrix xd = dag.solve(b);
  la::Matrix xl = lvl.solve(b);
  for (int i = 0; i < 512; ++i) {
    for (int j = 0; j < 6; ++j) ASSERT_EQ(xd(i, j), xl(i, j));
  }
}

// Thread-count invariance of the task-DAG engine: factor + solve must be
// bit-identical whether the DAG runs on 1, 2 or 8 threads.
TEST(ULV, TaskDagThreadCountInvariantBitwise) {
  Case c = kernel_case(384, 3, 1.1, 1e-2, 79);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});

  khss::util::Rng rng(80);
  la::Matrix b(384, 4);
  rng.fill_normal(b.data(), b.size());

  khss::util::set_threads(1);
  hs::ULVFactorization ref(hss, hs::ULVSchedule::kTaskDag);
  la::Matrix x_ref = ref.solve(b);

  for (const int threads : {2, 8}) {
    khss::util::set_threads(threads);
    hs::ULVFactorization ulv(hss, hs::ULVSchedule::kTaskDag);
    la::Matrix x = ulv.solve(b);
    for (int i = 0; i < 384; ++i) {
      for (int j = 0; j < 4; ++j) {
        ASSERT_EQ(x(i, j), x_ref(i, j)) << "threads=" << threads;
      }
    }
  }
  khss::util::set_threads(khss::util::hardware_threads());
}

TEST(ULV, SolveInCompressedOperatorIsExact) {
  // Even at loose compression tolerance, ULV solves the *compressed*
  // operator essentially exactly: residual measured in the HSS matvec.
  Case c = kernel_case(400, 6, 0.8, 0.5, 5);
  hs::HSSOptions opts;
  opts.rtol = 1e-2;  // loose, like the paper's classification setting
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, opts);
  hs::ULVFactorization ulv(hss);

  la::Vector b = random_vector(400, 6);
  la::Vector x = ulv.solve(b);
  EXPECT_LT(ulv.relative_residual(x, b), 1e-9);
}

TEST(ULV, DiagonalShiftThenRefactor) {
  // The lambda-update path: shift the HSS diagonal, refactor, solve again.
  Case c = kernel_case(256, 4, 1.0, 1.0, 8);
  hs::HSSOptions opts;
  opts.rtol = 1e-9;
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, opts);

  hss.shift_diagonal(4.0);  // lambda: 1 -> 5
  hs::ULVFactorization ulv(hss);
  la::Vector b = random_vector(256, 9);
  la::Vector x = ulv.solve(b);

  la::Matrix shifted = c.dense;
  shifted.shift_diagonal(4.0);
  la::LUFactor lu(shifted);
  la::Vector xref = lu.solve(b);
  for (int i = 0; i < 256; ++i) EXPECT_NEAR(x[i], xref[i], 1e-6);
}

TEST(ULV, SingleLeafTree) {
  const int n = 12;
  Case c = kernel_case(n, 2, 1.0, 2.0, 10);
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  // Rebuild with a tree that is a single leaf.
  la::Matrix pts(n, 1);
  for (int i = 0; i < n; ++i) pts(i, 0) = i;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, copts);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, tree, {});
  hs::ULVFactorization ulv(hss);

  la::Vector b = random_vector(n, 11);
  la::Vector x = ulv.solve(b);
  la::LUFactor lu(c.dense);
  la::Vector xref = lu.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(ULV, IdentityMatrix) {
  const int n = 64;
  la::Matrix eye = la::Matrix::identity(n);
  la::Matrix pts(n, 1);
  for (int i = 0; i < n; ++i) pts(i, 0) = i;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, {});
  hs::HSSMatrix hss = hs::build_hss_from_dense(eye, tree, {});
  hs::ULVFactorization ulv(hss);
  la::Vector b = random_vector(n, 12);
  la::Vector x = ulv.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], b[i], 1e-11);
}

TEST(ULV, RejectsWrongShapeRhs) {
  // Regression: release builds compiled the old assert away and read out of
  // bounds; all three entry points must throw at runtime instead.
  const int n = 100;
  Case c = kernel_case(n, 3, 1.0, 2.0, 21);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});
  hs::ULVFactorization ulv(hss);

  EXPECT_THROW(ulv.solve(la::Matrix(n - 1, 2)), std::invalid_argument);
  EXPECT_THROW(ulv.solve(la::Matrix(n + 1, 1)), std::invalid_argument);
  EXPECT_THROW(ulv.solve(la::Vector(n - 1)), std::invalid_argument);
  EXPECT_THROW(ulv.solve(la::Vector(0)), std::invalid_argument);
  EXPECT_THROW(ulv.relative_residual(la::Vector(5), la::Vector(n)),
               std::invalid_argument);
  EXPECT_THROW(ulv.relative_residual(la::Vector(n), la::Vector(n + 3)),
               std::invalid_argument);
  // Correct shapes still pass through.
  la::Vector b = random_vector(n, 22);
  EXPECT_NO_THROW(ulv.solve(b));
  EXPECT_NO_THROW(ulv.relative_residual(b, b));
}

TEST(ULV, SolveIsBitwiseInvariantUnderRhsSplits) {
  // One factorization, one logical set of right-hand sides: solving them in
  // a single block, in chunks, or column-by-column (the Vector entry point)
  // must produce bit-identical solutions — gemm_rhs_invariant routing plus
  // the width-free TRSM dispatch.
  const int n = 300;
  Case c = kernel_case(n, 4, 1.0, 1.5, 23);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});
  hs::ULVFactorization ulv(hss);

  khss::util::Rng rng(24);
  la::Matrix b(n, 7);
  rng.fill_normal(b.data(), b.size());
  const la::Matrix x = ulv.solve(b);

  // Chunked: {3, 4} columns.
  la::Matrix x1 = ulv.solve(b.block(0, 0, n, 3));
  la::Matrix x2 = ulv.solve(b.block(0, 3, n, 4));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(x(i, j), x1(i, j));
    for (int j = 0; j < 4; ++j) EXPECT_EQ(x(i, 3 + j), x2(i, j));
  }

  // Column-by-column through the Vector overload.
  for (int j = 0; j < 7; ++j) {
    la::Vector bc(n);
    for (int i = 0; i < n; ++i) bc[i] = b(i, j);
    la::Vector xc = ulv.solve(bc);
    for (int i = 0; i < n; ++i) EXPECT_EQ(x(i, j), xc[i]) << "col " << j;
  }
}

TEST(ULV, StatsReportPhases) {
  Case c = kernel_case(256, 4, 1.0, 1.0, 25);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});
  hs::ULVFactorization ulv(hss);

  const hs::ULVStats& st = ulv.stats();
  EXPECT_GT(st.levels, 1);
  EXPECT_GT(st.factor_seconds, 0.0);
  EXPECT_GE(st.factor_seconds,
            st.factor_tree_seconds);  // tree sweep is part of the total
  EXPECT_GT(st.factor_root_seconds, 0.0);

  la::Matrix b(256, 3);
  khss::util::Rng rng(26);
  rng.fill_normal(b.data(), b.size());
  (void)ulv.solve(b);
  EXPECT_EQ(ulv.stats().last_rhs, 3);
  EXPECT_GT(ulv.stats().solve_seconds, 0.0);
  EXPECT_GT(ulv.stats().solve_forward_seconds, 0.0);
  EXPECT_GT(ulv.stats().solve_backward_seconds, 0.0);
  EXPECT_GE(ulv.stats().solve_seconds, ulv.stats().solve_forward_seconds);
}

// Stress tier (CTest label `stress`, weekly ASan/UBSan): the level-parallel
// engine on a larger randomized build, multi-RHS, with the thread-count and
// RHS-split invariance contracts re-checked at size.
TEST(ULVStress, LargeRandomizedSystemMultiRhs) {
  const int n = 1600;
  Case c = kernel_case(n, 6, 1.0, 2.0, 31);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss =
      hs::build_hss_from_dense(c.dense, c.tree, opts, /*randomized=*/true);

  khss::util::set_threads(1);
  hs::ULVFactorization serial(hss);
  khss::util::set_threads(khss::util::hardware_threads());
  hs::ULVFactorization parallel(hss);

  la::Matrix b(n, 9);
  khss::util::Rng rng(32);
  rng.fill_normal(b.data(), b.size());
  const la::Matrix xs = serial.solve(b);
  const la::Matrix xp = parallel.solve(b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 9; ++j) EXPECT_EQ(xs(i, j), xp(i, j));
  }

  // Split invariance at size: first 4 columns as their own block.
  const la::Matrix xhalf = parallel.solve(b.block(0, 0, n, 4));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(xp(i, j), xhalf(i, j));
  }

  // And the solve is actually right (residual in the dense operator).
  for (int j = 0; j < 3; ++j) {
    la::Vector bc(n), xc(n);
    for (int i = 0; i < n; ++i) {
      bc[i] = b(i, j);
      xc[i] = xp(i, j);
    }
    la::Vector ax = la::matvec(c.dense, xc);
    double num = 0.0, den = 0.0;
    for (int i = 0; i < n; ++i) {
      num += (ax[i] - bc[i]) * (ax[i] - bc[i]);
      den += bc[i] * bc[i];
    }
    EXPECT_LT(std::sqrt(num / den), 1e-6) << "col " << j;
  }
}

TEST(ULV, MemoryAccounting) {
  Case c = kernel_case(256, 4, 1.0, 1.0, 13);
  hs::HSSMatrix hss = hs::build_hss_from_dense(c.dense, c.tree, {});
  hs::ULVFactorization ulv(hss);
  EXPECT_GT(ulv.memory_bytes(), 0u);
  // Factor memory should be comparable to (not wildly above) the HSS size.
  EXPECT_LT(ulv.memory_bytes(), 20 * hss.memory_bytes() + (1u << 20));
}
