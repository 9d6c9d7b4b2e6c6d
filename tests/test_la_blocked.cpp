// Parity and determinism pins for the cache-blocked compute core
// (DESIGN.md "Compute core"): the packed gemm and the blocked
// Cholesky/TRSM/multi-RHS solves against the retained naive kernels at
// 1e-12, across microkernel-edge shapes, all transpose cases and
// alpha/beta combinations; plus the thread-invariance pin (blocked gemm
// must be bit-identical for any thread count) and randomized *Stress*
// tiers (registered under the `stress` CTest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "la/blas.hpp"
#include "la/chol.hpp"
#include "la/gemm_kernel.hpp"
#include "la/lu.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace la = khss::la;
namespace util = khss::util;

namespace {

la::Matrix random_matrix(int m, int n, util::Rng& rng) {
  la::Matrix a(m, n);
  rng.fill_normal(a.data(), a.size());
  return a;
}

la::Matrix random_spd(int n, util::Rng& rng) {
  la::Matrix g = random_matrix(n, n, rng);
  la::Matrix a = la::matmul(g, g, la::Trans::kNo, la::Trans::kYes);
  a.shift_diagonal(static_cast<double>(n));
  return a;
}

double rel_diff(const la::Matrix& a, const la::Matrix& b) {
  return la::diff_f(a, b) / (1.0 + la::norm_f(b));
}

// Microkernel-edge sizes from the issue checklist: 1, MR-1, MR, 17, 64,
// 257 and an odd n+3 past the KC boundary.
const std::vector<int>& edge_sizes() {
  static const std::vector<int> kSizes = {
      1, la::detail::kMR - 1, la::detail::kMR, 17, 64, 257,
      la::detail::kKC + 3};
  return kSizes;
}

void expect_gemm_parity(int m, int n, int k, double alpha, double beta,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix c0 = random_matrix(m, n, rng);
  for (const la::Trans ta : {la::Trans::kNo, la::Trans::kYes}) {
    for (const la::Trans tb : {la::Trans::kNo, la::Trans::kYes}) {
      const la::Matrix a = ta == la::Trans::kNo ? random_matrix(m, k, rng)
                                                : random_matrix(k, m, rng);
      const la::Matrix b = tb == la::Trans::kNo ? random_matrix(k, n, rng)
                                                : random_matrix(n, k, rng);
      la::Matrix blocked = c0;
      la::gemm(alpha, a, ta, b, tb, beta, blocked);
      la::Matrix naive = c0;
      la::gemm_naive(alpha, a, ta, b, tb, beta, naive);
      EXPECT_LT(rel_diff(blocked, naive), 1e-12)
          << "m=" << m << " n=" << n << " k=" << k << " ta="
          << (ta == la::Trans::kYes) << " tb=" << (tb == la::Trans::kYes)
          << " alpha=" << alpha << " beta=" << beta;
    }
  }
}

}  // namespace

class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BlockedGemmShapes, MatchesNaiveAcrossEdgeSizes) {
  const auto [alpha, beta] = GetParam();
  std::uint64_t seed = 100;
  for (const int m : edge_sizes()) {
    for (const int n : edge_sizes()) {
      // Full size cross-product is too slow; pair each (m, n) with two
      // depths that straddle the packing boundaries.
      for (const int k : {la::detail::kMR, 64}) {
        expect_gemm_parity(m, n, k, alpha, beta, seed++);
      }
    }
  }
  // Depth edges at fixed m, n.
  for (const int k : edge_sizes()) {
    expect_gemm_parity(33, 29, k, alpha, beta, seed++);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaBeta, BlockedGemmShapes,
                         ::testing::Values(std::make_tuple(1.0, 0.0),
                                           std::make_tuple(2.0, 0.5),
                                           std::make_tuple(-1.0, 1.0)));

// The packed core must produce bit-identical C for any thread count: the
// tile partition and every accumulation order are fixed by the shape alone.
TEST(BlockedGemm, ThreadCountInvariantBitwise) {
  util::Rng rng(7);
  const int m = 257, n = 261, k = la::detail::kKC + 3;
  la::Matrix a = random_matrix(m, k, rng);
  la::Matrix b = random_matrix(k, n, rng);

  util::set_threads(1);
  la::Matrix ref(m, n);
  la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, ref);

  for (const int threads : {2, 3, util::hardware_threads()}) {
    util::set_threads(threads);
    la::Matrix c(m, n);
    la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, c);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(c(i, j), ref(i, j)) << "threads=" << threads << " at ("
                                      << i << "," << j << ")";
      }
    }
  }
  util::set_threads(util::hardware_threads());
}

// Same pin for the row-split invariance the serving path depends on: a row
// of C must not care how many other rows were computed in the same call.
TEST(BlockedGemm, RowSplitInvariantBitwise) {
  util::Rng rng(9);
  const int m = 96, n = 200, k = 80;
  la::Matrix a = random_matrix(m, k, rng);
  la::Matrix b = random_matrix(k, n, rng);
  la::Matrix full(m, n);
  la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, full);
  for (const int split : {1, 5, 37}) {
    for (int i0 = 0; i0 < m; i0 += split) {
      const int mi = std::min(split, m - i0);
      la::Matrix apart = a.block(i0, 0, mi, k);
      la::Matrix cpart(mi, n);
      la::gemm(1.0, apart, la::Trans::kNo, b, la::Trans::kNo, 0.0, cpart);
      for (int i = 0; i < mi; ++i) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(cpart(i, j), full(i0 + i, j))
              << "split=" << split << " row " << i0 + i;
        }
      }
    }
  }
}

TEST(BlockedCholesky, MatchesSolveAcrossSizes) {
  for (const int n : edge_sizes()) {
    util::Rng rng(40 + n);
    la::Matrix a = random_spd(n, rng);
    la::CholeskyFactor chol(a);

    // L L^T must reproduce A.
    la::Matrix llt = la::matmul(chol.l(), chol.l(), la::Trans::kNo,
                                la::Trans::kYes);
    EXPECT_LT(rel_diff(llt, a), 1e-12) << "n=" << n;

    // Strict upper triangle of l() stays clean.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) EXPECT_EQ(chol.l()(i, j), 0.0);
    }

    // Multi-RHS solve matches the reconstruction.
    const int nrhs = 7;
    la::Matrix x0 = random_matrix(n, nrhs, rng);
    la::Matrix rhs = la::matmul(a, x0);
    chol.solve_inplace(rhs);
    EXPECT_LT(rel_diff(rhs, x0), 1e-9 * n) << "n=" << n;
  }
}

TEST(BlockedTrsm, MatchesConstructionAcrossSizes) {
  for (const int n : edge_sizes()) {
    util::Rng rng(60 + n);
    // Well-conditioned lower/upper factors from an SPD Cholesky.
    la::Matrix spd = random_spd(n, rng);
    la::CholeskyFactor chol(spd);
    const la::Matrix& l = chol.l();
    const la::Matrix u = l.transposed();

    for (const int nrhs : {1, 3, la::detail::kNR, 150}) {
      la::Matrix x0 = random_matrix(n, nrhs, rng);

      la::Matrix b1 = la::matmul(l, x0);
      la::trsm_lower_left(l, b1, /*unit_diagonal=*/false);
      EXPECT_LT(rel_diff(b1, x0), 1e-11 * n) << "lower n=" << n;

      la::Matrix b2 = la::matmul(u, x0);
      la::trsm_upper_left(u, b2);
      EXPECT_LT(rel_diff(b2, x0), 1e-11 * n) << "upper n=" << n;

      la::Matrix b3 = la::matmul(u, x0);  // u = l^T
      la::trsm_lower_trans_left(l, b3);
      EXPECT_LT(rel_diff(b3, x0), 1e-11 * n) << "lower-trans n=" << n;

      la::Matrix y0 = random_matrix(nrhs, n, rng);
      la::Matrix b4 = la::matmul(y0, u);
      la::trsm_upper_right(u, b4);
      EXPECT_LT(rel_diff(b4, y0), 1e-11 * n) << "upper-right n=" << n;
    }

    // Unit-diagonal variant: I + small strictly-lower perturbation keeps
    // the triangular system well conditioned at every size.
    la::Matrix lu_l = random_matrix(n, n, rng);
    const double scale = 0.5 / n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        lu_l(i, j) = i == j ? 1.0 : (j < i ? lu_l(i, j) * scale : 0.0);
      }
    }
    la::Matrix x0 = random_matrix(n, 5, rng);
    la::Matrix b = la::matmul(lu_l, x0);
    la::trsm_lower_left(lu_l, b, /*unit_diagonal=*/true);
    EXPECT_LT(rel_diff(b, x0), 1e-11 * n) << "unit lower n=" << n;
  }
}

TEST(BlockedLu, MatchesSolveAcrossSizes) {
  for (const int n : edge_sizes()) {
    util::Rng rng(80 + n);
    la::Matrix a = random_matrix(n, n, rng);
    a.shift_diagonal(static_cast<double>(n));
    la::LUFactor lu(a);

    const int nrhs = 6;
    la::Matrix x0 = random_matrix(n, nrhs, rng);
    la::Matrix rhs = la::matmul(a, x0);
    lu.solve_inplace(rhs);
    EXPECT_LT(rel_diff(rhs, x0), 1e-10 * n) << "n=" << n;

    // Vector path agrees with the multi-RHS path.
    la::Vector b(n);
    for (auto& v : b) v = rng.normal();
    la::Vector x = lu.solve(b);
    la::Matrix bm(n, 1);
    for (int i = 0; i < n; ++i) bm(i, 0) = b[i];
    lu.solve_inplace(bm);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(bm(i, 0), x[i], 1e-10 * (1.0 + std::fabs(x[i])));
    }
  }
}

TEST(BlockedGemv, TransposedMatchesReference) {
  // Crosses the kGemvBlock partial-sum boundary (m > 2 * 256) so the
  // deterministic block reduction is exercised.
  util::Rng rng(5);
  const int m = 600, n = 70;
  la::Matrix a = random_matrix(m, n, rng);
  la::Vector x(m);
  for (auto& v : x) v = rng.normal();

  la::Vector y = la::matvec(a, x, la::Trans::kYes);
  for (int j = 0; j < n; ++j) {
    double s = 0.0;
    for (int i = 0; i < m; ++i) s += a(i, j) * x[i];
    EXPECT_NEAR(y[j], s, 1e-10 * (1.0 + std::fabs(s)));
  }

  // Thread-count invariance of the fixed-block reduction.
  util::set_threads(1);
  la::Vector serial = la::matvec(a, x, la::Trans::kYes);
  for (const int threads : {2, util::hardware_threads()}) {
    util::set_threads(threads);
    la::Vector parallel = la::matvec(a, x, la::Trans::kYes);
    for (int j = 0; j < n; ++j) EXPECT_EQ(parallel[j], serial[j]);
  }
  util::set_threads(util::hardware_threads());
}

namespace {

// RAII restore of the process-wide kernel variant, so tests that switch
// variants cannot leak state into later tests of this binary.
struct KernelConfigGuard {
  std::string kernel = la::detail::gemm_kernel_name();
  ~KernelConfigGuard() { la::detail::set_gemm_kernel(kernel); }
};

}  // namespace

// Every supported microkernel variant (generic, AVX2 and AVX-512 where the
// host has them) must agree with the naive kernel and be bitwise
// thread-count invariant across {1, 2, 3, 8} threads — including the odd
// shapes that exercise masked/padded edge tiles, and each mode of the
// threaded driver: 130x127x64 splits its two MC macro-rows across threads,
// 96x200x80 (one MC block, above kGemmThreadFlops) splits NR column panels.
TEST(BlockedGemm, KernelVariantsMatchNaiveAndThreadInvariant) {
  KernelConfigGuard guard;
  struct Shape {
    int m, n, k;
  };
  const std::vector<Shape> shapes = {
      {la::detail::kMR - 1, 37, la::detail::kKC + 3},
      {130, 127, 64},
      {257, 31, 70},
      {96, 200, 80},
  };
  for (const std::string& kernel : la::detail::supported_gemm_kernels()) {
    ASSERT_TRUE(la::detail::set_gemm_kernel(kernel));
    std::uint64_t seed = 500;
    for (const Shape& sh : shapes) {
      expect_gemm_parity(sh.m, sh.n, sh.k, -0.5, 1.0, seed++);

      util::Rng rng(seed++);
      la::Matrix a = random_matrix(sh.m, sh.k, rng);
      la::Matrix b = random_matrix(sh.k, sh.n, rng);
      util::set_threads(1);
      la::Matrix ref(sh.m, sh.n);
      la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, ref);
      for (const int threads : {2, 3, 8}) {
        util::set_threads(threads);
        la::Matrix c(sh.m, sh.n);
        la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, c);
        for (int i = 0; i < sh.m; ++i) {
          for (int j = 0; j < sh.n; ++j) {
            ASSERT_EQ(c(i, j), ref(i, j))
                << kernel << " threads=" << threads << " at (" << i << ","
                << j << ")";
          }
        }
      }
    }
  }
  util::set_threads(util::hardware_threads());
}

// ---------------------------------------------------------------- stress tier

TEST(BlockedLaStress, RandomizedGemmParity) {
  util::Rng shapes(1234);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 1 + static_cast<int>(shapes.index(300));
    const int n = 1 + static_cast<int>(shapes.index(300));
    const int k = 1 + static_cast<int>(shapes.index(300));
    const double alpha = shapes.normal();
    const double beta = trial % 3 == 0 ? 0.0 : shapes.normal();
    expect_gemm_parity(m, n, k, alpha, beta, 9000 + trial);
  }
}

TEST(BlockedLaStress, RandomizedCholTrsmParity) {
  util::Rng shapes(4321);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 2 + static_cast<int>(shapes.index(400));
    const int nrhs = 1 + static_cast<int>(shapes.index(40));
    util::Rng rng(7000 + trial);
    la::Matrix a = random_spd(n, rng);
    la::CholeskyFactor chol(a);
    la::Matrix x0 = random_matrix(n, nrhs, rng);
    la::Matrix rhs = la::matmul(a, x0);
    chol.solve_inplace(rhs);
    ASSERT_LT(rel_diff(rhs, x0), 1e-9 * n) << "n=" << n << " nrhs=" << nrhs;
  }
}

TEST(BlockedLaStress, LargeGemmThreadInvariance) {
  util::Rng rng(99);
  const int m = 520, n = 517, k = 519;
  la::Matrix a = random_matrix(m, k, rng);
  la::Matrix b = random_matrix(n, k, rng);  // op(B) = B^T below
  util::set_threads(1);
  la::Matrix ref(m, n);
  la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kYes, 0.0, ref);
  util::set_threads(util::hardware_threads());
  la::Matrix c(m, n);
  la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kYes, 0.0, c);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) ASSERT_EQ(c(i, j), ref(i, j));
  }
}
