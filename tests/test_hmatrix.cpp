// Tests for the strong-admissibility H-matrix.
#include <gtest/gtest.h>

#include <cstring>

#include "cluster/ordering.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "hmat/hmatrix.hpp"
#include "la/blas.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace cl = khss::cluster;
namespace hm = khss::hmat;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

struct HmCtx {
  cl::ClusterTree tree;
  std::unique_ptr<kn::KernelMatrix> kernel;
};

HmCtx make_setup(int n, int d, double h, double lambda, std::uint64_t seed,
                 cl::OrderingMethod method = cl::OrderingMethod::kTwoMeans) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.num_classes = 4;
  spec.center_spread = 6.0;
  khss::data::Dataset ds = khss::data::make_blobs(spec, rng);

  HmCtx s;
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  s.tree = cl::build_cluster_tree(ds.points, method, copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, s.tree.perm());
  s.kernel = std::make_unique<kn::KernelMatrix>(
      std::move(permuted), kn::KernelParams{kn::KernelType::kGaussian, h, 2, 1.0},
      lambda);
  return s;
}

}  // namespace

TEST(HMatrix, DenseReconstructionAccurate) {
  HmCtx s = make_setup(400, 4, 1.0, 0.5, 1);
  hm::HOptions opts;
  opts.rtol = 1e-6;
  hm::HMatrix h(*s.kernel, s.tree, opts);

  la::Matrix exact = s.kernel->dense();
  la::Matrix approx = h.dense();
  EXPECT_LT(la::diff_f(approx, exact), 1e-4 * la::norm_f(exact));
}

TEST(HMatrix, BlocksPartitionTheMatrix) {
  HmCtx s = make_setup(300, 3, 1.0, 0.0, 2);
  hm::HMatrix h(*s.kernel, s.tree, {});

  // Every (i, j) must be covered by exactly one block.
  const int n = h.n();
  std::vector<long> cover(static_cast<std::size_t>(n) * n, 0);
  for (const auto& blk : h.blocks()) {
    for (int i = blk.row_lo; i < blk.row_hi; ++i) {
      for (int j = blk.col_lo; j < blk.col_hi; ++j) {
        ++cover[static_cast<std::size_t>(i) * n + j];
      }
    }
  }
  for (long c : cover) EXPECT_EQ(c, 1);
}

TEST(HMatrix, MultiplyMatchesDense) {
  HmCtx s = make_setup(500, 5, 1.2, 0.3, 3);
  hm::HOptions opts;
  opts.rtol = 1e-7;
  hm::HMatrix h(*s.kernel, s.tree, opts);

  khss::util::Rng rng(4);
  la::Matrix x(500, 8);
  rng.fill_normal(x.data(), x.size());

  la::Matrix y = h.multiply(x);
  la::Matrix ref = la::matmul(s.kernel->dense(), x);
  EXPECT_LT(la::diff_f(y, ref), 1e-4 * (1.0 + la::norm_f(ref)));
}

TEST(HMatrix, SingleVectorPathMatchesMultiVector) {
  HmCtx s = make_setup(250, 4, 0.9, 0.1, 5);
  hm::HMatrix h(*s.kernel, s.tree, {});
  khss::util::Rng rng(6);
  la::Vector x(250);
  for (auto& v : x) v = rng.normal();
  la::Matrix xm(250, 1);
  for (int i = 0; i < 250; ++i) xm(i, 0) = x[i];

  la::Vector y1 = h.multiply(x);
  la::Matrix y2 = h.multiply(xm);
  for (int i = 0; i < 250; ++i) EXPECT_NEAR(y1[i], y2(i, 0), 1e-11);
}

TEST(HMatrix, LambdaBakedIntoDiagonal) {
  HmCtx s = make_setup(200, 3, 1.0, 2.5, 7);
  hm::HOptions opts;
  opts.rtol = 1e-7;
  hm::HMatrix h(*s.kernel, s.tree, opts);
  la::Matrix d = h.dense();
  // Diagonal entries = 1 (Gaussian) + lambda, reproduced exactly because the
  // diagonal lives in dense blocks.
  for (int i = 0; i < 200; ++i) EXPECT_NEAR(d(i, i), 3.5, 1e-12);
}

TEST(HMatrix, SetLambdaShiftsDiagonalOnly) {
  HmCtx s = make_setup(200, 3, 1.0, 1.0, 8);
  hm::HMatrix h(*s.kernel, s.tree, {});
  la::Matrix before = h.dense();
  h.set_lambda(4.0);
  la::Matrix after = h.dense();
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 200; ++j) {
      EXPECT_NEAR(after(i, j), before(i, j) + (i == j ? 3.0 : 0.0), 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(h.lambda(), 4.0);
}

TEST(HMatrix, StatsAreConsistent) {
  HmCtx s = make_setup(600, 6, 1.0, 0.2, 9);
  hm::HMatrix h(*s.kernel, s.tree, {});
  const auto& st = h.stats();
  EXPECT_EQ(st.num_blocks,
            st.num_lowrank_blocks + st.num_dense_blocks);
  EXPECT_GT(st.num_blocks, 0);
  EXPECT_GT(st.memory_bytes, 0u);

  std::size_t manual = 0;
  for (const auto& blk : h.blocks()) {
    manual += blk.low_rank ? blk.lr.bytes() : blk.dense.bytes();
  }
  EXPECT_EQ(st.memory_bytes, manual);
}

TEST(HMatrix, CompressesClusteredData) {
  // With clustered data and clustering-aware ordering, the H format must use
  // materially less memory than the dense matrix.
  HmCtx s = make_setup(1024, 8, 2.0, 0.0, 10);
  hm::HMatrix h(*s.kernel, s.tree, {});
  const std::size_t dense_bytes =
      static_cast<std::size_t>(1024) * 1024 * sizeof(double);
  EXPECT_LT(h.stats().memory_bytes, dense_bytes / 2);
  EXPECT_GT(h.stats().num_lowrank_blocks, 0);
}

TEST(HMatrix, EtaZeroMeansNoAdmissibleBlocks) {
  HmCtx s = make_setup(150, 3, 1.0, 0.0, 11);
  hm::HOptions opts;
  opts.eta = 0.0;          // nothing is geometrically admissible
  opts.speculative = false;  // and no hybrid-ACA attempts: everything dense
  hm::HMatrix h(*s.kernel, s.tree, opts);
  EXPECT_EQ(h.stats().num_lowrank_blocks, 0);
  // Exactly reproduces the matrix.
  EXPECT_LT(la::diff_f(h.dense(), s.kernel->dense()), 1e-12);
}

TEST(HMatrix, WorksWithNaturalOrderingToo) {
  HmCtx s = make_setup(300, 4, 1.0, 0.5, 12, cl::OrderingMethod::kNatural);
  hm::HOptions opts;
  opts.rtol = 1e-6;
  hm::HMatrix h(*s.kernel, s.tree, opts);
  khss::util::Rng rng(13);
  la::Matrix x(300, 4);
  rng.fill_normal(x.data(), x.size());
  la::Matrix y = h.multiply(x);
  la::Matrix ref = la::matmul(s.kernel->dense(), x);
  EXPECT_LT(la::diff_f(y, ref), 1e-4 * (1.0 + la::norm_f(ref)));
}

TEST(HMatrix, MultiplyColumnsAreBitIdenticalAcrossWidthsThreadsAndCalls) {
  // One path for every width: fixed 256-row chunks apply their blocks in
  // block order through the packed core, whose per-element sum order is
  // fixed by the shape.  So an output column depends only on the same column
  // of X: its bits do not move with the width (1 is the PCG backend's
  // matvec, 64-256 the randomized HSS sampling), the thread count or the
  // call.
  HmCtx s = make_setup(600, 5, 1.0, 0.4, 14);  // three 256-row chunks
  hm::HOptions opts;
  opts.rtol = 1e-6;
  hm::HMatrix h(*s.kernel, s.tree, opts);
  ASSERT_GT(h.stats().num_lowrank_blocks, 0);
  ASSERT_GT(h.stats().num_dense_blocks, 0);
  const int n = 600, widest = 300;
  khss::util::Rng rng(15);
  la::Matrix wide(n, widest);
  rng.fill_normal(wide.data(), wide.size());

  const int saved = khss::util::max_threads();
  khss::util::set_threads(1);
  std::vector<la::Matrix> alone;
  for (int c = 0; c < widest; ++c) alone.push_back(h.multiply(wide.block(0, c, n, 1)));
  const la::Matrix hd = h.dense();
  for (int width : {1, 2, 3, 5, 64, widest}) {
    const la::Matrix x = wide.block(0, 0, n, width);
    const la::Matrix ref = la::matmul(hd, x);
    for (int threads = 1; threads <= 4; ++threads) {
      khss::util::set_threads(threads);
      for (int call = 0; call < 2; ++call) {
        const la::Matrix y = h.multiply(x);
        bool same = true;
        for (int c = 0; c < width && same; ++c) {
          for (int i = 0; i < n && same; ++i) {
            const double a = y(i, c), b = alone[c](i, 0);
            same = std::memcmp(&a, &b, sizeof a) == 0;
          }
        }
        ASSERT_TRUE(same) << width << " columns, " << threads
                          << " threads, call " << call;
        EXPECT_LT(la::diff_f(y, ref), 1e-13 * la::norm_f(ref))
            << width << " columns, " << threads << " threads";
      }
    }
  }
  khss::util::set_threads(saved);
}
