// Tests for the KRR pipeline (Algorithm 1 of the paper).
#include <gtest/gtest.h>

#include <cmath>

#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "krr/krr.hpp"
#include "util/rng.hpp"

namespace data = khss::data;
namespace krr = khss::krr;
namespace la = khss::la;

namespace {

// A binary classification problem that is easy but not trivial.
struct Problem {
  la::Matrix xtrain, xtest;
  std::vector<int> ytrain, ytest;
};

Problem binary_problem(int n_train, int n_test, int d, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  data::BlobSpec spec;
  spec.n = n_train + n_test;
  spec.dim = d;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.center_spread = 4.0;
  data::Dataset ds = data::make_blobs(spec, rng);
  data::Split split = data::split_and_normalize(
      ds, static_cast<double>(n_train) / ds.n(), 0.0,
      static_cast<double>(n_test) / ds.n(), rng);

  Problem p;
  p.xtrain = split.train.points;
  p.xtest = split.test.points;
  p.ytrain = split.train.one_vs_all(1);
  p.ytest = split.test.one_vs_all(1);
  return p;
}

krr::KRROptions base_options(double h, double lambda) {
  krr::KRROptions opts;
  opts.kernel.h = h;
  opts.lambda = lambda;
  opts.hss_rtol = 1e-4;
  return opts;
}

}  // namespace

TEST(AccuracyScore, Definition) {
  EXPECT_DOUBLE_EQ(krr::accuracy_score({1, -1, 1}, {1, 1, 1}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(krr::accuracy_score({}, {}), 0.0);
}

TEST(BackendNames, AllDistinct) {
  EXPECT_EQ(krr::backend_name(krr::SolverBackend::kDenseExact), "dense");
  EXPECT_EQ(krr::backend_name(krr::SolverBackend::kHSSRandomH), "hss-rand-h");
  EXPECT_EQ(krr::backend_name(krr::SolverBackend::kHODLR_SMW), "hodlr-smw");
  EXPECT_EQ(krr::backend_name(krr::SolverBackend::kNystrom), "nystrom");
}

class AllBackends : public ::testing::TestWithParam<krr::SolverBackend> {};

TEST_P(AllBackends, LearnsSeparableProblem) {
  Problem p = binary_problem(600, 150, 6, 21);
  krr::KRROptions opts = base_options(1.0, 1.0);
  opts.backend = GetParam();
  krr::KRRClassifier clf(opts);
  clf.fit(p.xtrain, p.ytrain);
  const double acc = clf.accuracy(p.xtest, p.ytest);
  EXPECT_GT(acc, 0.9) << krr::backend_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, AllBackends,
                         ::testing::Values(krr::SolverBackend::kDenseExact,
                                           krr::SolverBackend::kHSSDirect,
                                           krr::SolverBackend::kHSSRandomDense,
                                           krr::SolverBackend::kHSSRandomH,
                                           krr::SolverBackend::kHODLR_SMW,
                                           krr::SolverBackend::kNystrom));

TEST(KRR, CompressedAccuracyMatchesDense) {
  // The paper's Section 5.2 claim: at sensible tolerance the compressed
  // prediction accuracy equals the exact kernel's.
  Problem p = binary_problem(800, 200, 8, 22);

  krr::KRROptions dense_opts = base_options(1.0, 1.0);
  dense_opts.backend = krr::SolverBackend::kDenseExact;
  krr::KRRClassifier dense_clf(dense_opts);
  dense_clf.fit(p.xtrain, p.ytrain);
  const double dense_acc = dense_clf.accuracy(p.xtest, p.ytest);

  krr::KRROptions hss_opts = base_options(1.0, 1.0);
  hss_opts.backend = krr::SolverBackend::kHSSRandomDense;
  hss_opts.hss_rtol = 1e-1;  // the paper's STRUMPACK tolerance 0.1
  krr::KRRClassifier hss_clf(hss_opts);
  hss_clf.fit(p.xtrain, p.ytrain);
  const double hss_acc = hss_clf.accuracy(p.xtest, p.ytest);

  EXPECT_NEAR(hss_acc, dense_acc, 0.03);
}

TEST(KRR, WeightsSolveTheLinearSystem) {
  Problem p = binary_problem(400, 50, 4, 23);
  krr::KRROptions opts = base_options(1.0, 2.0);
  opts.hss_rtol = 1e-8;
  krr::KRRModel model(opts);
  model.fit(p.xtrain);

  la::Vector y(p.ytrain.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = p.ytrain[i];
  la::Vector w = model.solve(y);
  EXPECT_LT(model.training_residual(w, y), 1e-6);
}

TEST(KRR, OrderingInvariantPredictions) {
  // The decision function must not depend on the internal reordering.
  Problem p = binary_problem(500, 100, 5, 24);
  la::Vector ref;
  for (auto ordering :
       {khss::cluster::OrderingMethod::kNatural,
        khss::cluster::OrderingMethod::kKD,
        khss::cluster::OrderingMethod::kPCA,
        khss::cluster::OrderingMethod::kTwoMeans}) {
    krr::KRROptions opts = base_options(1.0, 1.0);
    opts.ordering = ordering;
    opts.hss_rtol = 1e-9;  // tight so compression error is negligible
    krr::KRRClassifier clf(opts);
    clf.fit(p.xtrain, p.ytrain);
    la::Vector scores = clf.decision_function(p.xtest);
    if (ref.empty()) {
      ref = scores;
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(scores[i], ref[i], 1e-4 * (1.0 + std::fabs(ref[i])));
      }
    }
  }
}

TEST(KRR, LambdaUpdateMatchesFreshFit) {
  Problem p = binary_problem(400, 100, 5, 25);

  krr::KRROptions opts = base_options(1.0, 0.5);
  opts.hss_rtol = 1e-8;
  krr::KRRClassifier warm(opts);
  warm.fit(p.xtrain, p.ytrain);
  warm.set_lambda(5.0);  // diagonal update + refactor + resolve

  krr::KRROptions opts2 = base_options(1.0, 5.0);
  opts2.hss_rtol = 1e-8;
  krr::KRRClassifier cold(opts2);
  cold.fit(p.xtrain, p.ytrain);

  la::Vector a = warm.decision_function(p.xtest);
  la::Vector b = cold.decision_function(p.xtest);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-5 * (1.0 + std::fabs(b[i])));
  }
}

TEST(KRR, StatsPopulatedForHBackend) {
  Problem p = binary_problem(600, 50, 6, 26);
  krr::KRROptions opts = base_options(1.0, 1.0);
  opts.backend = krr::SolverBackend::kHSSRandomH;
  krr::KRRClassifier clf(opts);
  clf.fit(p.xtrain, p.ytrain);
  const auto& st = clf.model().stats();
  EXPECT_GT(st.h_construction_seconds, 0.0);
  EXPECT_GT(st.h_memory_bytes, 0u);
  EXPECT_GT(st.compressed_memory_bytes, 0u);
  EXPECT_GT(st.compress_seconds, 0.0);
  EXPECT_GT(st.sampling_seconds, 0.0);
  EXPECT_GE(st.compress_seconds, st.sampling_seconds);
  EXPECT_GT(st.factor_seconds, 0.0);
  EXPECT_GT(st.max_rank, 0);
}

TEST(KRR, RejectsBadLabels) {
  Problem p = binary_problem(100, 10, 3, 27);
  std::vector<int> bad(p.ytrain);
  bad[0] = 7;
  krr::KRRClassifier clf(base_options(1.0, 1.0));
  EXPECT_THROW(clf.fit(p.xtrain, bad), std::invalid_argument);
}

TEST(KRR, SolveBeforeFitThrows) {
  krr::KRRModel model(base_options(1.0, 1.0));
  EXPECT_THROW(model.solve(la::Vector(10, 1.0)), std::logic_error);
}

TEST(OneVsAll, MulticlassBeatsChance) {
  khss::util::Rng rng(28);
  data::BlobSpec spec;
  spec.n = 900;
  spec.dim = 6;
  spec.num_classes = 5;
  spec.center_spread = 5.0;
  data::Dataset ds = data::make_blobs(spec, rng);
  data::Split split = data::split_and_normalize(ds, 0.8, 0.0, 0.2, rng);

  krr::KRROptions opts = base_options(1.0, 1.0);
  krr::OneVsAllKRR clf(opts);
  clf.fit(split.train.points, split.train.labels, 5);
  const double acc = clf.accuracy(split.test.points, split.test.labels);
  EXPECT_GT(acc, 0.85);
}

TEST(OneVsAll, SharesOneCompressionAcrossClasses) {
  khss::util::Rng rng(29);
  data::BlobSpec spec;
  spec.n = 400;
  spec.dim = 4;
  spec.num_classes = 4;
  data::Dataset ds = data::make_blobs(spec, rng);

  krr::KRROptions opts = base_options(1.0, 1.0);
  krr::OneVsAllKRR clf(opts);
  clf.fit(ds.points, ds.labels, 4);
  // One fit => one compression; stats report exactly one construction (in
  // it the adaptive sampler may extend its sample a bounded number of
  // rounds).
  EXPECT_GT(clf.model().stats().compress_seconds, 0.0);
  EXPECT_LE(clf.model().stats().restarts, 2);
}

TEST(PaperTwins, Table2OperatingPointsLearn) {
  // Small-n sanity sweep over all seven dataset twins at the paper's (h,
  // lambda): accuracy must be far above the one-vs-all base rate.
  for (const auto& info : data::paper_datasets()) {
    data::Dataset ds = data::make_paper_dataset(info.name, 700);
    khss::util::Rng rng(31);
    data::Split split = data::split_and_normalize(ds, 0.8, 0.0, 0.2, rng);

    krr::KRROptions opts;
    opts.kernel.h = info.h;
    opts.lambda = info.lambda;
    opts.hss_rtol = 1e-1;
    krr::KRRClassifier clf(opts);
    clf.fit(split.train.points, split.train.one_vs_all(info.target_class));
    const double acc =
        clf.accuracy(split.test.points, split.test.one_vs_all(info.target_class));
    EXPECT_GT(acc, 0.7) << info.name;
  }
}
