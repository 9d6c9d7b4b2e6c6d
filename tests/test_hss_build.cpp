// Tests for HSS construction (direct and randomized) and HSS matvec.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "kernel/kernel.hpp"
#include "la/blas.hpp"
#include "util/rng.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

// A dense symmetric matrix with genuine HSS structure: a kernel matrix on
// clustered points, reordered by 2-means.
struct KernelCase {
  cl::ClusterTree tree;
  std::unique_ptr<kn::KernelMatrix> kernel;
  la::Matrix dense;
};

KernelCase kernel_case(int n, int d, double h, double lambda,
                       std::uint64_t seed) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.num_classes = 4;
  spec.center_spread = 6.0;
  auto ds = khss::data::make_blobs(spec, rng);

  KernelCase kc;
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  kc.tree = cl::build_cluster_tree(ds.points, cl::OrderingMethod::kTwoMeans,
                                   copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, kc.tree.perm());
  kc.kernel = std::make_unique<kn::KernelMatrix>(
      std::move(permuted),
      kn::KernelParams{kn::KernelType::kGaussian, h, 2, 1.0}, lambda);
  kc.dense = kc.kernel->dense();
  return kc;
}

// Non-symmetric structured matrix: smooth off-diagonal interaction plus a
// dominant diagonal, with distinct row/column behaviour.
la::Matrix nonsymmetric_structured(int n) {
  la::Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = 1.0 / (1.0 + std::abs(i - 2 * j) / 4.0) +
                (i == j ? 5.0 : 0.0) + 0.3 / (1.0 + std::abs(i - j));
    }
  }
  return a;
}

// Symmetric counterpart: a smooth function of |i - j| plus a dominant
// diagonal.
la::Matrix symmetric_structured(int n) {
  la::Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = 1.0 / (1.0 + std::abs(i - j) / 4.0) + (i == j ? 5.0 : 0.0);
    }
  }
  return a;
}

}  // namespace

TEST(HSSDirect, ReconstructsKernelMatrix) {
  KernelCase kc = kernel_case(400, 4, 1.0, 0.5, 1);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts,
                                               /*randomized=*/false);
  EXPECT_TRUE(hss.validate());
  EXPECT_LT(la::diff_f(hss.dense(), kc.dense), 1e-5 * la::norm_f(kc.dense));
}

TEST(HSSRandomized, ReconstructsKernelMatrix) {
  KernelCase kc = kernel_case(400, 4, 1.0, 0.5, 2);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts,
                                               /*randomized=*/true);
  EXPECT_TRUE(hss.validate());
  EXPECT_LT(la::diff_f(hss.dense(), kc.dense), 1e-5 * la::norm_f(kc.dense));
}

TEST(HSSRandomized, MatvecMatchesDense) {
  KernelCase kc = kernel_case(500, 5, 1.2, 0.2, 3);
  hs::HSSOptions opts;
  opts.rtol = 1e-7;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);

  khss::util::Rng rng(4);
  la::Matrix x(500, 5);
  rng.fill_normal(x.data(), x.size());
  la::Matrix y = hss.matmat(x);
  la::Matrix ref = la::matmul(kc.dense, x);
  EXPECT_LT(la::diff_f(y, ref), 1e-4 * (1.0 + la::norm_f(ref)));

  la::Vector xv(500);
  for (int i = 0; i < 500; ++i) xv[i] = x(i, 0);
  la::Vector yv = hss.matvec(xv);
  for (int i = 0; i < 500; ++i) EXPECT_NEAR(yv[i], y(i, 0), 1e-10);
}

TEST(HSSRandomized, PartiallyMatrixFreeKernelInterface) {
  // Build straight from the kernel callbacks — K is never formed.
  KernelCase kc = kernel_case(600, 6, 1.0, 1.0, 5);
  hs::ExtractFn extract = [&](const std::vector<int>& r,
                              const std::vector<int>& c) {
    return kc.kernel->extract(r, c);
  };
  hs::SampleFn sample = [&](const la::Matrix& r) {
    return kc.kernel->multiply(r);
  };
  hs::HSSOptions opts;
  opts.rtol = 1e-6;
  hs::HSSMatrix hss = hs::build_hss_randomized(kc.tree, extract, sample, {},
                                               opts);
  EXPECT_TRUE(hss.validate());
  EXPECT_LT(la::diff_f(hss.dense(), kc.dense), 1e-3 * la::norm_f(kc.dense));
}

TEST(HSSRandomized, NonSymmetricMatrix) {
  // The format stores B10 = B01^T, so a non-symmetric matrix is refused up
  // front, naming the first entry whose mirror differs.
  const int n = 300;
  la::Matrix a = nonsymmetric_structured(n);
  la::Matrix pts(n, 1);
  for (int i = 0; i < n; ++i) pts(i, 0) = i;  // natural 1-D geometry
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, copts);
  for (bool randomized : {true, false}) {
    try {
      (void)hs::build_hss_from_dense(a, tree, {}, randomized);
      ADD_FAILURE() << "a non-symmetric matrix was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not symmetric"), std::string::npos) << msg;
      EXPECT_NE(msg.find("A(1, 0) != A(0, 1)"), std::string::npos) << msg;
    }
  }

  // A one-ulp asymmetry far from the first row is still found, by position.
  la::Matrix s = symmetric_structured(n);
  s(200, 17) = std::nextafter(s(200, 17), 1e9);
  try {
    (void)hs::build_hss_from_dense(s, tree, {});
    ADD_FAILURE() << "a one-ulp asymmetry was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("A(200, 17) != A(17, 200)"),
              std::string::npos)
        << e.what();
  }
}

TEST(HSSRandomized, AdaptivityRestartsOnUndersampling) {
  // Start with far too few samples: construction must restart and still
  // succeed (kernel block ranks here exceed the initial budget).
  KernelCase kc = kernel_case(512, 8, 0.7, 0.0, 6);
  hs::HSSOptions opts;
  opts.rtol = 1e-10;
  opts.init_samples = 16;
  opts.oversampling = 8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);
  EXPECT_GE(hss.restarts_, 1);
  EXPECT_LT(la::diff_f(hss.dense(), kc.dense), 1e-5 * la::norm_f(kc.dense));
}

TEST(HSS, IdentityMatrixHasRankZero) {
  la::Matrix eye = la::Matrix::identity(128);
  la::Matrix pts(128, 1);
  for (int i = 0; i < 128; ++i) pts(i, 0) = i;
  cl::ClusterTree tree = cl::build_cluster_tree(
      pts, cl::OrderingMethod::kNatural, {});
  hs::HSSMatrix hss = hs::build_hss_from_dense(eye, tree, {});
  EXPECT_EQ(hss.max_rank(), 0);
  EXPECT_LT(la::diff_f(hss.dense(), eye), 1e-12);
}

TEST(HSS, ShiftDiagonalEqualsLambdaUpdate) {
  KernelCase kc = kernel_case(256, 4, 1.0, 0.0, 7);
  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);
  hss.shift_diagonal(2.5);
  la::Matrix shifted = kc.dense;
  shifted.shift_diagonal(2.5);
  EXPECT_LT(la::diff_f(hss.dense(), shifted), 1e-5 * la::norm_f(shifted));
}

TEST(HSS, MemoryBelowDenseForClusteredKernel) {
  KernelCase kc = kernel_case(1024, 8, 2.0, 0.0, 8);
  hs::HSSOptions opts;
  opts.rtol = 1e-4;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);
  EXPECT_LT(hss.memory_bytes(), kc.dense.bytes() / 2);
  EXPECT_GT(hss.max_rank(), 0);
}

TEST(HSS, ToleranceTradesMemoryForAccuracy) {
  KernelCase kc = kernel_case(512, 6, 1.0, 0.0, 9);
  std::size_t prev_mem = SIZE_MAX / 2;  // headroom for the +slack comparison
  double prev_err = 1e300;
  for (double tol : {1e-1, 1e-4, 1e-8}) {
    hs::HSSOptions opts;
    opts.rtol = tol;
    hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);
    const double err = la::diff_f(hss.dense(), kc.dense) /
                       la::norm_f(kc.dense);
    EXPECT_LE(hss.memory_bytes(), prev_mem + 16384);  // tighter tol, more mem
    EXPECT_LE(err, prev_err + 1e-12);
    prev_mem = hss.memory_bytes();
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);
}

TEST(HSS, SingleLeafTreeIsDense) {
  la::Matrix a = symmetric_structured(12);
  la::Matrix pts(12, 1);
  for (int i = 0; i < 12; ++i) pts(i, 0) = i;
  cl::OrderingOptions copts;
  copts.leaf_size = 16;  // n < leaf => single node
  cl::ClusterTree tree =
      cl::build_cluster_tree(pts, cl::OrderingMethod::kNatural, copts);
  hs::HSSMatrix hss = hs::build_hss_from_dense(a, tree, {});
  EXPECT_LT(la::diff_f(hss.dense(), a), 1e-12);
}

TEST(HSS, BGeneratorsAreSubmatrices) {
  // The ID-based construction promises B01 = A(Jrow_l, Jrow_r) exactly
  // (and B10 = B01^T = A(Jrow_r, Jrow_l) by symmetry).
  KernelCase kc = kernel_case(300, 4, 1.0, 0.5, 10);
  hs::HSSOptions opts;
  opts.rtol = 1e-6;
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, opts);
  for (const auto& nd : hss.nodes()) {
    if (nd.is_leaf()) continue;
    const auto& l = hss.nodes()[nd.left];
    const auto& r = hss.nodes()[nd.right];
    for (int i = 0; i < nd.b01.rows(); ++i) {
      for (int j = 0; j < nd.b01.cols(); ++j) {
        EXPECT_EQ(nd.b01(i, j), kc.dense(l.jrow[i], r.jrow[j]));
        EXPECT_EQ(nd.b01(i, j), kc.dense(r.jrow[j], l.jrow[i]));
      }
    }
  }
}

TEST(HSS, StatsPopulated) {
  KernelCase kc = kernel_case(256, 4, 1.0, 0.5, 11);
  hs::HSSMatrix hss = hs::build_hss_from_dense(kc.dense, kc.tree, {});
  const auto st = hss.stats();
  EXPECT_GT(st.memory_bytes, 0u);
  EXPECT_GT(st.num_leaves, 0);
  EXPECT_GT(st.levels, 1);
  EXPECT_GT(st.samples_used, 0);
  EXPECT_GE(st.construction_seconds, 0.0);
}
