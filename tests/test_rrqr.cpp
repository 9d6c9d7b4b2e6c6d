// Tests for rank-revealing QR and the interpolative decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/rrqr.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace la = khss::la;
namespace util = khss::util;

namespace {

la::Matrix random_matrix(int m, int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix a(m, n);
  rng.fill_normal(a.data(), a.size());
  return a;
}

// Random matrix with exact rank k.
la::Matrix rank_k_matrix(int m, int n, int k, std::uint64_t seed) {
  la::Matrix u = random_matrix(m, k, seed);
  la::Matrix v = random_matrix(k, n, seed + 1);
  return la::matmul(u, v);
}

// Column-by-column pivoted Householder QR: the reference the row-major
// kernel must reproduce bit for bit (rank, pivots and R).
namespace ref {

la::RRQRResult rrqr(la::Matrix a, const la::TruncationOptions& opts) {
  const int m = a.rows(), n = a.cols();
  int kmax = m < n ? m : n;
  if (opts.max_rank >= 0 && opts.max_rank < kmax) kmax = opts.max_rank;
  std::vector<int> jpvt(n);
  std::iota(jpvt.begin(), jpvt.end(), 0);
  std::vector<double> colnorm2(n), colnorm2_ref(n);
  for (int j = 0; j < n; ++j) {
    double s = 0.0;
    for (int i = 0; i < m; ++i) s += a(i, j) * a(i, j);
    colnorm2[j] = colnorm2_ref[j] = s;
  }
  double first_pivot = 0.0;
  int k = 0;
  for (; k < kmax; ++k) {
    int piv = k;
    for (int j = k + 1; j < n; ++j) {
      if (colnorm2[j] > colnorm2[piv]) piv = j;
    }
    if (piv != k) {
      for (int i = 0; i < m; ++i) std::swap(a(i, k), a(i, piv));
      std::swap(colnorm2[k], colnorm2[piv]);
      std::swap(colnorm2_ref[k], colnorm2_ref[piv]);
      std::swap(jpvt[k], jpvt[piv]);
    }
    double norm = 0.0;
    for (int i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (k == 0) first_pivot = norm;
    if (norm <= std::max(opts.atol, opts.rtol * first_pivot)) break;
    const double alpha = a(k, k) >= 0 ? -norm : norm;
    const double v0 = a(k, k) - alpha;
    for (int i = k + 1; i < m; ++i) a(i, k) /= v0;
    const double t = -v0 / alpha;
    a(k, k) = alpha;
    for (int c = k + 1; c < n; ++c) {
      double s = a(k, c);
      for (int i = k + 1; i < m; ++i) s += a(i, k) * a(i, c);
      s *= t;
      a(k, c) -= s;
      for (int i = k + 1; i < m; ++i) a(i, c) -= s * a(i, k);
    }
    for (int c = k + 1; c < n; ++c) {
      const double akc = a(k, c);
      double updated = colnorm2[c] - akc * akc;
      if (updated < 0.0) updated = 0.0;
      if (updated <= 1e-12 * colnorm2_ref[c]) {
        double s = 0.0;
        for (int i = k + 1; i < m; ++i) s += a(i, c) * a(i, c);
        updated = s;
        colnorm2_ref[c] = s;
      }
      colnorm2[c] = updated;
    }
  }
  la::RRQRResult out;
  out.rank = k;
  out.jpvt = std::move(jpvt);
  out.r = la::Matrix(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < n; ++j) out.r(i, j) = a(i, j);
  }
  return out;
}

la::ColumnID interpolative_cols(const la::Matrix& m,
                                const la::TruncationOptions& opts) {
  const la::RRQRResult f = ref::rrqr(m, opts);
  const int k = f.rank;
  la::ColumnID out;
  out.cols.assign(f.jpvt.begin(), f.jpvt.begin() + k);
  out.coeff = la::Matrix(k, m.cols());
  if (k == 0) return out;
  la::Matrix rhs = f.r;
  la::trsm_upper_left(f.r.block(0, 0, k, k), rhs);
  for (int j = 0; j < m.cols(); ++j) {
    for (int i = 0; i < k; ++i) out.coeff(i, f.jpvt[j]) = rhs(i, j);
  }
  return out;
}

}  // namespace ref

::testing::AssertionResult same_bits(const la::Matrix& got,
                                     const la::Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << " x " << got.cols() << " vs "
           << want.rows() << " x " << want.cols();
  }
  if (got.size() != 0 &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

// Runs fn() at 1, 2 and 4 threads, restoring the thread count.
template <typename Fn>
void at_thread_counts(Fn&& fn) {
  const int entry = util::max_threads();
  for (const int t : {1, 2, 4}) {
    util::set_threads(t);
    SCOPED_TRACE(::testing::Message() << t << " threads");
    fn();
  }
  util::set_threads(entry);
}

struct PinCase {
  const char* name;
  la::Matrix a;
  la::TruncationOptions opts;
};

// A 430 x 256 H sample of rank 215 (the ID a tune-mnist node runs) and its
// transpose, plus 1 x 1, m x 0, 0 x n, wide, tall, zero columns, exact low
// rank, a zero matrix and the max_rank cap.
std::vector<PinCase> pin_cases() {
  la::TruncationOptions tight;
  tight.rtol = 1e-10;
  la::TruncationOptions capped;
  capped.max_rank = 7;
  la::Matrix sample = rank_k_matrix(430, 256, 215, 40);
  la::Matrix noise = random_matrix(430, 256, 42);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample.data()[i] += 1e-9 * noise.data()[i];
  }
  la::Matrix zc = random_matrix(30, 14, 43);
  for (int i = 0; i < zc.rows(); ++i) zc(i, 2) = zc(i, 9) = 0.0;
  std::vector<PinCase> cases;
  cases.push_back({"sample 430x256", sample, {}});
  cases.push_back({"sample^T 256x430", sample.transposed(), {}});
  cases.push_back({"1x1", random_matrix(1, 1, 44), {}});
  cases.push_back({"6x0", la::Matrix(6, 0), {}});
  cases.push_back({"0x6", la::Matrix(0, 6), {}});
  cases.push_back({"wide 12x50", random_matrix(12, 50, 45), {}});
  cases.push_back({"tall 90x4", random_matrix(90, 4, 46), {}});
  cases.push_back({"zero columns 30x14", std::move(zc), {}});
  cases.push_back({"rank 5 30x25", rank_k_matrix(30, 25, 5, 7), tight});
  cases.push_back({"zero 10x6", la::Matrix(10, 6), {}});
  cases.push_back({"max_rank 7", random_matrix(40, 40, 47), capped});
  return cases;
}

}  // namespace

TEST(RRQR, FullRankReconstruction) {
  la::Matrix a = random_matrix(12, 8, 2);
  la::RRQRResult f = la::rrqr(a, {});
  EXPECT_EQ(f.rank, 8);

  // R^T R == (A P)^T (A P)  (columns permuted by jpvt): A P = Q R with
  // orthonormal Q.
  la::Matrix rtr = la::matmul(f.r, f.r, la::Trans::kYes, la::Trans::kNo);
  la::Matrix ap = a.cols_subset(f.jpvt);
  la::Matrix gram = la::matmul(ap, ap, la::Trans::kYes, la::Trans::kNo);
  const double na = la::norm_f(a);
  EXPECT_LT(la::diff_f(rtr, gram), 1e-10 * (1.0 + na * na));
}

TEST(RRQR, DetectsExactLowRank) {
  la::Matrix a = rank_k_matrix(30, 25, 5, 7);
  la::TruncationOptions opts;
  opts.rtol = 1e-10;
  la::RRQRResult f = la::rrqr(a, opts);
  EXPECT_EQ(f.rank, 5);
}

TEST(RRQR, MaxRankCap) {
  la::Matrix a = random_matrix(20, 20, 9);
  la::TruncationOptions opts;
  opts.max_rank = 4;
  la::RRQRResult f = la::rrqr(a, opts);
  EXPECT_EQ(f.rank, 4);
}

TEST(RRQR, ZeroMatrixRankZero) {
  la::Matrix a(10, 6);
  la::RRQRResult f = la::rrqr(a, {});
  EXPECT_EQ(f.rank, 0);
}

TEST(RRQR, PivotMagnitudesDecrease) {
  la::Matrix a = random_matrix(30, 30, 11);
  la::RRQRResult f = la::rrqr(a, {});
  for (int k = 1; k < f.rank; ++k) {
    EXPECT_LE(std::fabs(f.r(k, k)), std::fabs(f.r(k - 1, k - 1)) + 1e-12);
  }
}

class IDRank : public ::testing::TestWithParam<int> {};

TEST_P(IDRank, ColumnIDReconstructs) {
  const int k = GetParam();
  la::Matrix a = rank_k_matrix(40, 35, k, 100 + k);
  la::TruncationOptions opts;
  opts.rtol = 1e-9;
  la::ColumnID cid = la::interpolative_cols(a, opts);
  EXPECT_EQ(static_cast<int>(cid.cols.size()), k);

  // A ~= A(:, J) * coeff.
  la::Matrix aj = a.cols_subset(cid.cols);
  la::Matrix rec = la::matmul(aj, cid.coeff);
  EXPECT_LT(la::diff_f(rec, a), 1e-7 * (1.0 + la::norm_f(a)));

  // coeff restricted to J must be the identity.
  for (std::size_t c = 0; c < cid.cols.size(); ++c) {
    for (std::size_t r = 0; r < cid.cols.size(); ++r) {
      EXPECT_NEAR(cid.coeff(static_cast<int>(r), cid.cols[c]),
                  r == c ? 1.0 : 0.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, IDRank, ::testing::Values(1, 3, 8, 20));

TEST(ID, RowIDReconstructs) {
  la::Matrix a = rank_k_matrix(35, 50, 6, 55);
  la::TruncationOptions opts;
  opts.rtol = 1e-9;
  la::RowID rid = la::interpolative_rows(a, opts);
  EXPECT_EQ(rid.rows.size(), 6u);

  la::Matrix aj = a.rows_subset(rid.rows);
  la::Matrix rec = la::matmul(rid.basis, aj);
  EXPECT_LT(la::diff_f(rec, a), 1e-7 * (1.0 + la::norm_f(a)));

  // basis(J, :) == I.
  for (std::size_t r = 0; r < rid.rows.size(); ++r) {
    for (std::size_t c = 0; c < rid.rows.size(); ++c) {
      EXPECT_NEAR(rid.basis(rid.rows[r], static_cast<int>(c)),
                  r == c ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(ID, ToleranceControlsApproximationError) {
  // Matrix with geometrically decaying singular values.
  const int n = 40;
  khss::util::Rng rng(123);
  la::Matrix u = random_matrix(n, n, 1);
  la::Matrix v = random_matrix(n, n, 2);
  la::QRFactor qu(u), qv(v);
  la::Matrix uu = qu.q_thin(), vv = qv.q_thin();
  la::Matrix sv(n, n);
  for (int i = 0; i < n; ++i) sv(i, i) = std::pow(0.5, i);
  la::Matrix a = la::matmul(la::matmul(uu, sv), vv, la::Trans::kNo,
                            la::Trans::kYes);

  for (double tol : {1e-2, 1e-4, 1e-6}) {
    la::TruncationOptions opts;
    opts.rtol = tol;
    la::RowID rid = la::interpolative_rows(a, opts);
    la::Matrix rec = la::matmul(rid.basis, a.rows_subset(rid.rows));
    // ID error is bounded by a modest polynomial factor over the singular
    // value at the truncation rank; allow two orders of slack.
    EXPECT_LT(la::diff_f(rec, a), 100.0 * tol * la::norm_f(a));
  }
}

TEST(ID, EmptyMatrixGivesRankZero) {
  la::Matrix a(8, 0);
  la::ColumnID cid = la::interpolative_cols(a, {});
  EXPECT_TRUE(cid.cols.empty());
  la::Matrix b(0, 8);
  la::RowID rid = la::interpolative_rows(b.transposed(), {});
  EXPECT_TRUE(rid.rows.empty());
}

TEST(RRQR, MatchesColumnLoopsBitForBit) {
  for (const PinCase& pc : pin_cases()) {
    SCOPED_TRACE(pc.name);
    const la::RRQRResult want = ref::rrqr(pc.a, pc.opts);
    at_thread_counts([&] {
      const la::RRQRResult got = la::rrqr(pc.a, pc.opts);
      EXPECT_EQ(got.rank, want.rank);
      EXPECT_EQ(got.jpvt, want.jpvt);
      EXPECT_TRUE(same_bits(got.r, want.r));
    });
  }
}

TEST(ID, MatchesColumnLoopsBitForBit) {
  for (const PinCase& pc : pin_cases()) {
    SCOPED_TRACE(pc.name);
    const la::ColumnID want_c = ref::interpolative_cols(pc.a, pc.opts);
    // Row ID of A = column ID of A^T, basis = coeff^T.
    const la::ColumnID want_r =
        ref::interpolative_cols(pc.a.transposed(), pc.opts);
    at_thread_counts([&] {
      const la::ColumnID cid = la::interpolative_cols(pc.a, pc.opts);
      EXPECT_EQ(cid.cols, want_c.cols);
      EXPECT_TRUE(same_bits(cid.coeff, want_c.coeff));
      const la::RowID rid = la::interpolative_rows(pc.a, pc.opts);
      EXPECT_EQ(rid.rows, want_r.cols);
      EXPECT_TRUE(same_bits(rid.basis, want_r.coeff.transposed()));
    });
  }
}
