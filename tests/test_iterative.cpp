// Tests for PCG and the HSS-preconditioned iterative KRR backend
// (the paper's Section 6 future-work configuration).
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "krr/krr.hpp"
#include "la/blas.hpp"
#include "la/iterative.hpp"
#include "util/rng.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;

namespace {

la::Matrix random_spd(int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix g(n, n);
  rng.fill_normal(g.data(), g.size());
  la::Matrix a = la::matmul(g, g, la::Trans::kNo, la::Trans::kYes);
  a.shift_diagonal(0.5 * n);
  return a;
}

la::MatVecFn op_of(const la::Matrix& a) {
  return [&a](const la::Vector& x) { return la::matvec(a, x); };
}

la::Vector random_vec(int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Vector v(n);
  for (auto& e : v) e = rng.normal();
  return v;
}

}  // namespace

TEST(PCG, SolvesSPDSystem) {
  const int n = 80;
  la::Matrix a = random_spd(n, 1);
  la::Vector x0 = random_vec(n, 2);
  la::Vector b = la::matvec(a, x0);

  la::Vector x(n, 0.0);
  la::IterativeOptions opts;
  opts.rtol = 1e-10;
  la::IterativeResult r = la::pcg(op_of(a), nullptr, b, &x, opts);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x0[i], 1e-6);
}

TEST(PCG, ZeroRhsGivesZero) {
  la::Matrix a = random_spd(10, 3);
  la::Vector b(10, 0.0), x(10, 5.0);
  la::IterativeResult r = la::pcg(op_of(a), nullptr, b, &x, {});
  EXPECT_TRUE(r.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(PCG, PreconditionerCutsIterations) {
  // Ill-conditioned diagonal system; exact diagonal preconditioner should
  // converge in O(1) iterations vs many for plain CG.
  const int n = 200;
  la::Matrix a(n, n);
  for (int i = 0; i < n; ++i) a(i, i) = std::pow(10.0, 4.0 * i / (n - 1));
  la::Vector b = random_vec(n, 4);

  la::IterativeOptions opts;
  opts.rtol = 1e-10;
  opts.max_iterations = 1000;

  la::Vector x1(n, 0.0);
  la::IterativeResult plain = la::pcg(op_of(a), nullptr, b, &x1, opts);

  la::MatVecFn jacobi = [&a](const la::Vector& v) {
    la::Vector out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] = v[i] / a(static_cast<int>(i), static_cast<int>(i));
    }
    return out;
  };
  la::Vector x2(n, 0.0);
  la::IterativeResult pre = la::pcg(op_of(a), jacobi, b, &x2, opts);

  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations / 2);
}

TEST(PCG, RespectsIterationCap) {
  const int n = 300;
  la::Matrix a(n, n);
  for (int i = 0; i < n; ++i) a(i, i) = std::pow(10.0, 6.0 * i / (n - 1));
  la::Vector b = random_vec(n, 5);
  la::Vector x(n, 0.0);
  la::IterativeOptions opts;
  opts.rtol = 1e-14;
  opts.max_iterations = 5;
  la::IterativeResult r = la::pcg(op_of(a), nullptr, b, &x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 5);
}

TEST(HSSPreconditioner, LooseULVAcceleratesCG) {
  // The paper's future-work claim in miniature: a tolerance-0.3 HSS ULV
  // factorization used as M^{-1} must slash CG iterations on K + lambda I.
  khss::util::Rng rng(12);
  khss::data::BlobSpec spec;
  spec.n = 600;
  spec.dim = 6;
  spec.num_classes = 4;
  spec.center_spread = 5.0;
  auto ds = khss::data::make_blobs(spec, rng);

  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  cl::ClusterTree tree = cl::build_cluster_tree(
      ds.points, cl::OrderingMethod::kTwoMeans, copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.05);
  la::Matrix kd = km.dense();

  hs::HSSOptions hopts;
  hopts.rtol = 0.3;  // deliberately loose: an "incomplete" factorization
  hs::HSSMatrix hss = hs::build_hss_from_dense(kd, tree, hopts);
  hs::ULVFactorization ulv(hss);

  la::Vector b = random_vec(600, 13);
  la::IterativeOptions iopts;
  iopts.rtol = 1e-8;
  iopts.max_iterations = 600;

  la::Vector x1(600, 0.0);
  la::IterativeResult plain = la::pcg(op_of(kd), nullptr, b, &x1, iopts);
  la::Vector x2(600, 0.0);
  la::MatVecFn precond = [&ulv](const la::Vector& v) { return ulv.solve(v); };
  la::IterativeResult pre = la::pcg(op_of(kd), precond, b, &x2, iopts);

  EXPECT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
  // Preconditioned solution solves the true system.
  la::Vector ax = la::matvec(kd, x2);
  double num = 0.0, den = 0.0;
  for (int i = 0; i < 600; ++i) {
    num += (ax[i] - b[i]) * (ax[i] - b[i]);
    den += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-7);
}

TEST(IterativeBackend, ClassifiesLikeDirectBackend) {
  khss::util::Rng rng(14);
  khss::data::BlobSpec spec;
  spec.n = 700;
  spec.dim = 5;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.center_spread = 4.0;
  auto ds = khss::data::make_blobs(spec, rng);
  auto split = khss::data::split_and_normalize(ds, 0.8, 0.0, 0.2, rng);

  khss::krr::KRROptions direct;
  direct.backend = khss::krr::SolverBackend::kHSSRandomH;
  direct.kernel.h = 1.0;
  direct.lambda = 1.0;
  direct.hss_rtol = 1e-2;
  khss::krr::KRRClassifier a(direct);
  a.fit(split.train.points, split.train.one_vs_all(1));

  khss::krr::KRROptions iter = direct;
  iter.backend = khss::krr::SolverBackend::kIterativeHSSPrecond;
  khss::krr::KRRClassifier b(iter);
  b.fit(split.train.points, split.train.one_vs_all(1));

  const auto ytest = split.test.one_vs_all(1);
  EXPECT_NEAR(b.accuracy(split.test.points, ytest),
              a.accuracy(split.test.points, ytest), 0.03);
  EXPECT_GT(b.model().stats().solve_iterations, 0);
  EXPECT_LE(b.model().stats().solve_iterations, 200);
}

TEST(IterativeBackend, LambdaUpdateKeepsOperatorInSync) {
  khss::util::Rng rng(15);
  khss::data::BlobSpec spec;
  spec.n = 400;
  spec.dim = 4;
  auto ds = khss::data::make_blobs(spec, rng);

  khss::krr::KRROptions opts;
  opts.backend = khss::krr::SolverBackend::kIterativeHSSPrecond;
  opts.kernel.h = 1.0;
  opts.lambda = 0.5;
  opts.hss_rtol = 1e-2;
  khss::krr::KRRModel model(opts);
  model.fit(ds.points);
  model.set_lambda(4.0);

  la::Vector y(400, 1.0);
  la::Vector w = model.solve(y);
  // Residual against the true shifted kernel at the *new* lambda.
  EXPECT_LT(model.training_residual(w, y), 1e-1);
}
