// Tests for Householder QR and the QL / LQ variants used by the ULV solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "la/blas.hpp"
#include "la/qr.hpp"
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

// Column-by-column Householder loops: the reference the row-major kernels
// must reproduce bit for bit.
namespace ref {

struct QR {
  la::Matrix a;  // reflectors below the diagonal, R on and above
  std::vector<double> tau;
};

QR qr_factor(la::Matrix a) {
  const int m = a.rows(), n = a.cols();
  const int k = m < n ? m : n;
  std::vector<double> tau(k, 0.0);
  for (int j = 0; j < k; ++j) {
    double norm = 0.0;
    for (int i = j; i < m; ++i) norm += a(i, j) * a(i, j);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = a(j, j) >= 0 ? -norm : norm;
    const double v0 = a(j, j) - alpha;
    for (int i = j + 1; i < m; ++i) a(i, j) /= v0;
    tau[j] = -v0 / alpha;
    a(j, j) = alpha;
    for (int c = j + 1; c < n; ++c) {
      double s = a(j, c);
      for (int i = j + 1; i < m; ++i) s += a(i, j) * a(i, c);
      s *= tau[j];
      a(j, c) -= s;
      for (int i = j + 1; i < m; ++i) a(i, c) -= s * a(i, j);
    }
  }
  return {std::move(a), std::move(tau)};
}

// B <- Q B, every column through every reflector, last to first.
void apply_q(const QR& f, la::Matrix& b) {
  const int m = f.a.rows();
  const int k = static_cast<int>(f.tau.size());
  for (int c = 0; c < b.cols(); ++c) {
    for (int j = k - 1; j >= 0; --j) {
      const double t = f.tau[j];
      if (t == 0.0) continue;
      double s = b(j, c);
      for (int i = j + 1; i < m; ++i) s += f.a(i, j) * b(i, c);
      s *= t;
      b(j, c) -= s;
      for (int i = j + 1; i < m; ++i) b(i, c) -= s * f.a(i, j);
    }
  }
}

la::Matrix r(const QR& f) {
  const int m = f.a.rows(), n = f.a.cols();
  const int k = m < n ? m : n;
  la::Matrix out(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < n; ++j) out(i, j) = f.a(i, j);
  }
  return out;
}

la::Matrix q_thin(const QR& f) {
  const int m = f.a.rows(), k = static_cast<int>(f.tau.size());
  la::Matrix q(m, k);
  for (int i = 0; i < k; ++i) q(i, i) = 1.0;
  apply_q(f, q);
  return q;
}

la::Matrix q_full(const QR& f) {
  la::Matrix q = la::Matrix::identity(f.a.rows());
  apply_q(f, q);
  return q;
}

la::Matrix reversed(const la::Matrix& a) {
  la::Matrix out(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      out(i, j) = a(a.rows() - 1 - i, a.cols() - 1 - j);
    }
  }
  return out;
}

la::QLResult ql_zero_top(const la::Matrix& u) {
  const int m = u.rows(), r = u.cols();
  const QR f = qr_factor(reversed(u));
  la::QLResult out;
  out.omega = reversed(q_full(f).transposed());
  la::Matrix rfac(m, r);
  rfac.set_block(0, 0, ref::r(f));
  out.l = reversed(rfac).block(m - r, 0, r, r);
  return out;
}

la::LQResult lq(const la::Matrix& a) {
  const QR f = qr_factor(a.transposed());
  la::LQResult out;
  out.l = ref::r(f).transposed();
  out.q = q_full(f).transposed();
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

// Runs fn() at 1, 2 and 4 threads (the row kernels split large blocks over
// column panels outside parallel regions), restoring the thread count.
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
};

// The ULV factorization's shapes (U blocks of 128 x 54 and 430 x 215, a
// 128 x 128 block) plus the edge shapes: 1 x 1, m x 0, 0 x n, wide, tall,
// zero columns (the tau = 0 reflectors) and exact low rank.
std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  cases.push_back({"1x1", random_matrix(1, 1, 1)});
  cases.push_back({"7x0", la::Matrix(7, 0)});
  cases.push_back({"0x5", la::Matrix(0, 5)});
  cases.push_back({"wide 20x45", random_matrix(20, 45, 2)});
  cases.push_back({"tall 100x3", random_matrix(100, 3, 3)});
  cases.push_back({"U 128x54", random_matrix(128, 54, 4)});
  cases.push_back({"U 430x215", random_matrix(430, 215, 5)});
  cases.push_back({"block 128x128", random_matrix(128, 128, 6)});
  la::Matrix zc = random_matrix(40, 12, 7);
  for (int i = 0; i < zc.rows(); ++i) zc(i, 0) = zc(i, 5) = 0.0;
  cases.push_back({"zero columns 40x12", std::move(zc)});
  cases.push_back({"zero 9x6", la::Matrix(9, 6)});
  cases.push_back({"rank 5 60x40",
                   la::matmul(random_matrix(60, 5, 8), random_matrix(5, 40, 9))});
  return cases;
}

}  // namespace

class QRShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QRShapes, ReconstructsAndIsOrthogonal) {
  auto [m, n] = GetParam();
  la::Matrix a = random_matrix(m, n, 100 + m * 7 + n);
  la::QRFactor qr(a);

  la::Matrix qfull = qr.q_full();
  EXPECT_LT(la::orthogonality_error(qfull), 1e-11);

  // Q * [R; 0] == A.
  la::Matrix rpad(m, n);
  la::Matrix r = qr.r();
  rpad.set_block(0, 0, r);
  EXPECT_LT(la::diff_f(la::matmul(qfull, rpad), a),
            1e-10 * (1.0 + la::norm_f(a)));

  // Thin Q has orthonormal columns.
  la::Matrix qt = qr.q_thin();
  EXPECT_LT(la::orthogonality_error(qt), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QRShapes,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(5, 5),
                                           std::make_pair(20, 8),
                                           std::make_pair(8, 20),
                                           std::make_pair(64, 64),
                                           std::make_pair(100, 3)));

TEST(QR, ApplyQtInvertsApplyQ) {
  la::Matrix a = random_matrix(12, 6, 5);
  la::Matrix q = la::QRFactor(a).q_full();
  la::Matrix b = random_matrix(12, 4, 6);
  la::Matrix qb = la::matmul(q, b);
  la::Matrix qtqb = la::matmul(q, qb, la::Trans::kYes, la::Trans::kNo);
  EXPECT_LT(la::diff_f(qtqb, b), 1e-11);
}

TEST(QR, RIsUpperTriangular) {
  la::Matrix a = random_matrix(10, 7, 8);
  la::Matrix r = la::QRFactor(a).r();
  for (int i = 0; i < r.rows(); ++i) {
    for (int j = 0; j < i && j < r.cols(); ++j) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(QR, RankDeficientColumnHandled) {
  la::Matrix a(6, 3);
  for (int i = 0; i < 6; ++i) a(i, 0) = i;  // col1 = 2*col0, col2 = 0
  for (int i = 0; i < 6; ++i) a(i, 1) = 2.0 * i;
  la::QRFactor qr(a);
  la::Matrix rpad(6, 3);
  rpad.set_block(0, 0, qr.r());
  EXPECT_LT(la::diff_f(la::matmul(qr.q_full(), rpad), a), 1e-10);
}

TEST(QR, FactorsMatchColumnLoopsBitForBit) {
  for (const PinCase& pc : pin_cases()) {
    SCOPED_TRACE(pc.name);
    const ref::QR f = ref::qr_factor(pc.a);
    const la::Matrix want_r = ref::r(f);
    const la::Matrix want_thin = ref::q_thin(f);
    const la::Matrix want_full = ref::q_full(f);
    at_thread_counts([&] {
      const la::QRFactor qr(pc.a);
      EXPECT_TRUE(same_bits(qr.r(), want_r));
      EXPECT_TRUE(same_bits(qr.q_thin(), want_thin));
      EXPECT_TRUE(same_bits(qr.q_full(), want_full));
    });
  }
}

TEST(QR, QLAndLQMatchColumnLoopsBitForBit) {
  for (const PinCase& pc : pin_cases()) {
    SCOPED_TRACE(pc.name);
    const la::Matrix& a = pc.a;
    // QL needs rows >= cols, LQ rows <= cols: each case feeds both routines
    // in whichever orientation they accept.
    const la::Matrix tall = a.rows() >= a.cols() ? a : a.transposed();
    const la::QLResult want_ql = ref::ql_zero_top(tall);
    const la::LQResult want_lq = ref::lq(tall.transposed());
    at_thread_counts([&] {
      const la::QLResult ql = la::ql_zero_top(tall);
      EXPECT_TRUE(same_bits(ql.omega, want_ql.omega));
      EXPECT_TRUE(same_bits(ql.l, want_ql.l));
      const la::LQResult lq = la::lq(tall.transposed());
      EXPECT_TRUE(same_bits(lq.l, want_lq.l));
      EXPECT_TRUE(same_bits(lq.q, want_lq.q));
    });
  }
}

TEST(QR, LQOfEliminationBlockMatchesColumnLoops) {
  // The decoupled rows of a 128-point ULV node with rank 54: a 74 x 128 LQ.
  const la::Matrix a = random_matrix(74, 128, 10);
  const la::LQResult want = ref::lq(a);
  at_thread_counts([&] {
    const la::LQResult got = la::lq(a);
    EXPECT_TRUE(same_bits(got.l, want.l));
    EXPECT_TRUE(same_bits(got.q, want.q));
  });
}

class QLShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QLShapes, ZeroesTopRows) {
  auto [m, r] = GetParam();
  ASSERT_GE(m, r);
  la::Matrix u = random_matrix(m, r, 31 + m + r);
  la::QLResult ql = la::ql_zero_top(u);

  EXPECT_LT(la::orthogonality_error(ql.omega), 1e-11);

  la::Matrix t = la::matmul(ql.omega, u);
  // Top m-r rows must vanish.
  for (int i = 0; i < m - r; ++i) {
    for (int j = 0; j < r; ++j) EXPECT_NEAR(t(i, j), 0.0, 1e-10);
  }
  // Bottom block equals L and is lower triangular.
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < r; ++j) {
      EXPECT_NEAR(t(m - r + i, j), ql.l(i, j), 1e-10);
      if (j > i) EXPECT_NEAR(ql.l(i, j), 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QLShapes,
                         ::testing::Values(std::make_pair(4, 4),
                                           std::make_pair(10, 4),
                                           std::make_pair(16, 1),
                                           std::make_pair(33, 17),
                                           std::make_pair(5, 0)));

TEST(LQ, FactorizesWideMatrix) {
  const int me = 5, m = 12;
  la::Matrix a = random_matrix(me, m, 77);
  la::LQResult lq = la::lq(a);

  EXPECT_LT(la::orthogonality_error(lq.q), 1e-11);
  // L lower triangular.
  for (int i = 0; i < me; ++i) {
    for (int j = i + 1; j < me; ++j) EXPECT_NEAR(lq.l(i, j), 0.0, 1e-12);
  }
  // [L 0] * Q == A.
  la::Matrix lpad(me, m);
  lpad.set_block(0, 0, lq.l);
  la::Matrix rec = la::matmul(lpad, lq.q);
  EXPECT_LT(la::diff_f(rec, a), 1e-10 * (1.0 + la::norm_f(a)));
}

TEST(LQ, SquareCase) {
  const int m = 7;
  la::Matrix a = random_matrix(m, m, 78);
  la::LQResult lq = la::lq(a);
  la::Matrix rec = la::matmul(lq.l, lq.q);
  EXPECT_LT(la::diff_f(rec, a), 1e-10 * (1.0 + la::norm_f(a)));
}
