// Tests for Adaptive Cross Approximation and SVD recompression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "hmat/aca.hpp"
#include "kernel/kernel.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "util/rng.hpp"

namespace hm = khss::hmat;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

la::Matrix random_matrix(int m, int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix a(m, n);
  rng.fill_normal(a.data(), a.size());
  return a;
}

la::Matrix rank_k_matrix(int m, int n, int k, std::uint64_t seed) {
  return la::matmul(random_matrix(m, k, seed), random_matrix(k, n, seed + 1));
}

// Panels of an m x n block read one element at a time through `entry`.
template <typename Entry>
hm::PanelFn panels_of_entries(int m, int n, Entry entry) {
  hm::PanelFn p;
  p.row = [n, entry](int i, double* out) {
    for (int j = 0; j < n; ++j) out[j] = entry(i, j);
  };
  p.col = [m, entry](int j, double* out) {
    for (int i = 0; i < m; ++i) out[i] = entry(i, j);
  };
  return p;
}

// Panels of a stored matrix.
hm::PanelFn panels_of(const la::Matrix& a) {
  return panels_of_entries(a.rows(), a.cols(),
                           [&a](int i, int j) { return a(i, j); });
}

}  // namespace

class ACARanks : public ::testing::TestWithParam<int> {};

TEST_P(ACARanks, RecoversExactLowRank) {
  const int k = GetParam();
  la::Matrix a = rank_k_matrix(60, 45, k, 20 + k);
  hm::ACAOptions opts;
  opts.rtol = 1e-10;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(60, 45, panels_of(a), opts, &lr));
  EXPECT_LE(lr.rank(), k + 2);  // ACA may slightly overshoot
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-7 * (1.0 + la::norm_f(a)));
}

INSTANTIATE_TEST_SUITE_P(Ranks, ACARanks, ::testing::Values(1, 2, 5, 12));

TEST(ACA, SmoothKernelBlockCompresses) {
  // 1/(1+|x-y|) interaction between two separated 1-D clusters: smooth and
  // strongly compressible — the H-matrix use case.
  const int m = 100, n = 120;
  auto entry = [&](int i, int j) {
    const double x = 0.01 * i;        // cluster at [0, 1]
    const double y = 10.0 + 0.01 * j; // cluster at [10, 11.2]
    return 1.0 / (1.0 + std::fabs(x - y));
  };
  hm::ACAOptions opts;
  opts.rtol = 1e-8;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(m, n, panels_of_entries(m, n, entry), opts, &lr));
  EXPECT_LT(lr.rank(), 20);

  la::Matrix a(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = entry(i, j);
  }
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-6 * la::norm_f(a));
}

TEST(ACA, ToleranceControlsError) {
  la::Matrix a(50, 50);
  // Geometric singular value decay via outer products.
  for (int k = 0; k < 20; ++k) {
    la::Matrix u = random_matrix(50, 1, 100 + k);
    la::Matrix v = random_matrix(50, 1, 200 + k);
    const double s = std::pow(0.4, k);
    for (int i = 0; i < 50; ++i) {
      for (int j = 0; j < 50; ++j) a(i, j) += s * u(i, 0) * v(j, 0);
    }
  }
  double prev_err = 1e300;
  for (double tol : {1e-1, 1e-3, 1e-6}) {
    hm::ACAOptions opts;
    opts.rtol = tol;
    hm::LowRank lr;
    ASSERT_TRUE(hm::aca(50, 50, panels_of(a), opts, &lr));
    const double err = la::diff_f(lr.dense(), a) / la::norm_f(a);
    EXPECT_LT(err, 50.0 * tol);
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
  }
}

TEST(ACA, FailsGracefullyOnFullRankNoise) {
  // Dense Gaussian noise has no low-rank structure; with a small rank cap
  // ACA must report failure (the H-matrix then stores the block dense).
  la::Matrix a = random_matrix(40, 40, 33);
  hm::ACAOptions opts;
  opts.rtol = 1e-8;
  opts.max_rank = 5;
  hm::LowRank lr;
  EXPECT_FALSE(hm::aca(40, 40, panels_of(a), opts, &lr));
  EXPECT_EQ(lr.rank(), 5);  // partial factors still returned
}

TEST(ACA, ZeroBlockGivesRankZeroOrOne) {
  la::Matrix a(10, 8);
  hm::ACAOptions opts;
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(10, 8, panels_of(a), opts, &lr));
  EXPECT_LE(lr.rank(), 1);
  EXPECT_LT(la::norm_f(lr.dense()), 1e-12);
}

TEST(ACA, SingleRowAndColumn) {
  la::Matrix a = random_matrix(1, 7, 44);
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(1, 7, panels_of(a), {}, &lr));
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-10);

  la::Matrix b = random_matrix(9, 1, 45);
  hm::LowRank lr2;
  ASSERT_TRUE(hm::aca(9, 1, panels_of(b), {}, &lr2));
  EXPECT_LT(la::diff_f(lr2.dense(), b), 1e-10);
}

TEST(Recompress, ReducesInflatedRank) {
  // A rank-3 matrix deliberately represented with rank-10 factors: the extra
  // u columns are random but paired with zero v columns.
  la::Matrix a = random_matrix(30, 3, 50);
  la::Matrix b = random_matrix(25, 3, 51);
  la::Matrix core = la::matmul(a, b, la::Trans::kNo, la::Trans::kYes);

  hm::LowRank lr;
  lr.u = la::Matrix(30, 10);
  lr.v = la::Matrix(25, 10);
  lr.u.set_block(0, 0, a);
  lr.v.set_block(0, 0, b);
  la::Matrix junk = random_matrix(30, 7, 52);
  lr.u.set_block(0, 3, junk);  // v columns 3..9 stay zero

  ASSERT_LT(la::diff_f(lr.dense(), core), 1e-10 * la::norm_f(core));
  hm::recompress(&lr, 1e-10);
  EXPECT_LE(lr.rank(), 4);
  EXPECT_LT(la::diff_f(lr.dense(), core), 1e-7 * la::norm_f(core));
}

TEST(Recompress, NoopOnTightRank) {
  la::Matrix a = rank_k_matrix(20, 20, 2, 60);
  hm::LowRank lr;
  ASSERT_TRUE(hm::aca(20, 20, panels_of(a), {}, &lr));
  const int before = lr.rank();
  hm::recompress(&lr, 1e-12);
  EXPECT_LE(lr.rank(), before);
  EXPECT_LT(la::diff_f(lr.dense(), a), 1e-6 * (1.0 + la::norm_f(a)));
}

namespace {

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(KernelPanels, AcaValidationAndSvdFallbackMatchEntryBitForBit) {
  // kernel_panels() reads whole rows and columns through
  // KernelMatrix::row_panel(); element by element through entry() the three
  // consumers must see, and return, the very same bits.  The diagonal span
  // puts lambda inside the block.
  struct Span {
    int lo, hi;
  };
  const Span blocks[][2] = {{{0, 47}, {47, 120}},
                            {{47, 120}, {0, 47}},
                            {{20, 90}, {20, 90}}};
  for (const int dim : {5, 300}) {
    la::Matrix pts = random_matrix(120, dim, 70 + dim);
    for (std::size_t e = 0; e < pts.size(); ++e) {
      pts.data()[e] *= std::sqrt(5.0 / dim);
    }
    kn::KernelParams params;
    params.h = 1.5;
    const kn::KernelMatrix km(pts, params, 0.3);
    for (const auto& blk : blocks) {
      const Span r = blk[0], c = blk[1];
      const int m = r.hi - r.lo, n = c.hi - c.lo;
      const hm::PanelFn panels = hm::kernel_panels(km, r.lo, r.hi, c.lo, c.hi);
      const hm::PanelFn entries = panels_of_entries(
          m, n, [&km, r, c](int i, int j) { return km.entry(r.lo + i, c.lo + j); });
      const std::string what = "dim " + std::to_string(dim) + " rows [" +
                               std::to_string(r.lo) + ", " +
                               std::to_string(r.hi) + ")";
      for (const int cap : {0, 4}) {
        hm::ACAOptions opts;
        opts.rtol = 1e-6;
        opts.max_rank = cap;
        hm::LowRank a, b;
        EXPECT_EQ(hm::aca(m, n, panels, opts, &a),
                  hm::aca(m, n, entries, opts, &b))
            << what;
        EXPECT_TRUE(same_bits(a.u, b.u) && same_bits(a.v, b.v))
            << what << " cap " << cap;
        for (const double tol : {1e-2, 1e-4, 1e-6, 1e-8}) {
          EXPECT_EQ(hm::validate_lowrank(m, n, panels, a, tol, 16),
                    hm::validate_lowrank(m, n, entries, a, tol, 16))
              << what << " tol " << tol;
        }
      }
      const hm::LowRank sa = hm::dense_svd_lowrank(m, n, panels, 1e-6);
      const hm::LowRank sb = hm::dense_svd_lowrank(m, n, entries, 1e-6);
      EXPECT_GT(sa.rank(), 0) << what;
      EXPECT_TRUE(same_bits(sa.u, sb.u) && same_bits(sa.v, sb.v)) << what;
    }
  }
}

TEST(LowRank, BytesAccounting) {
  hm::LowRank lr;
  lr.u = la::Matrix(10, 3);
  lr.v = la::Matrix(8, 3);
  EXPECT_EQ(lr.bytes(), (10 * 3 + 8 * 3) * sizeof(double));
  EXPECT_EQ(lr.rank(), 3);
}
