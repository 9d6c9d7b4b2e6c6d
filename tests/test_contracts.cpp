// Tests for the contract macro layer (util/contracts.hpp) and its adoption
// at the public API boundaries.  Two things are pinned here:
//
//   1. The exception taxonomy: shape/argument violations are
//      ContractViolation (an invalid_argument), lifecycle violations are
//      StateViolation (a logic_error) — so existing catch sites keep
//      working unchanged.
//   2. The diagnostics: messages carry the function name, the offending
//      dimensions and a "[cond at file:line]" suffix, and they do so in
//      RELEASE builds — these checks must never compile out.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hodlr/hodlr.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "krr/krr.hpp"
#include "la/blas.hpp"
#include "predict/batch_predictor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace la = khss::la;
namespace kn = khss::kernel;
namespace ut = khss::util;

namespace {

/// Run `fn`, require it to throw E, and return the message.
template <typename E, typename Fn>
std::string capture(Fn fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
    return "";
  }
  ADD_FAILURE() << "no exception thrown";
  return "";
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

// --- the macro layer itself --------------------------------------------------

TEST(Contracts, RequireThrowsContractViolationWithFormattedMessage) {
  const int got = 3, want = 5;
  const std::string msg = capture<ut::ContractViolation>([&] {
    KHSS_REQUIRE(got == want, "demo: got " << got << ", want " << want);
  });
  EXPECT_TRUE(contains(msg, "demo: got 3, want 5")) << msg;
  EXPECT_TRUE(contains(msg, "got == want")) << msg;       // the condition text
  EXPECT_TRUE(contains(msg, "test_contracts.cpp")) << msg;  // the file
}

TEST(Contracts, ViolationTypesMapOntoStandardHierarchy) {
  // ContractViolation IS-A invalid_argument; StateViolation IS-A logic_error.
  EXPECT_THROW(KHSS_REQUIRE(false, "x"), std::invalid_argument);
  EXPECT_THROW(KHSS_REQUIRE_STATE(false, "x"), std::logic_error);
  EXPECT_THROW(KHSS_ENSURE(false, "x"), std::logic_error);
}

TEST(Contracts, RequireActiveInEveryBuildType) {
  // Unlike assert(), KHSS_REQUIRE must survive NDEBUG.  This test runs in
  // the Release CI configuration, so reaching the EXPECT_THROW at all — and
  // having it pass — is the proof.
  EXPECT_THROW(KHSS_REQUIRE(1 == 2, "release-mode check"),
               ut::ContractViolation);
}

TEST(Contracts, MessageSideEffectsOnlyOnFailure) {
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 7;
  };
  KHSS_REQUIRE(true, "never built: " << count());
  EXPECT_EQ(evaluations, 0);  // passing check must not build the message
  EXPECT_THROW(KHSS_REQUIRE(false, "built once: " << count()),
               ut::ContractViolation);
  EXPECT_EQ(evaluations, 1);
}

// --- adoption at the la:: boundaries ----------------------------------------

TEST(Contracts, GemmShapeDiagnosticNamesDimensions) {
  la::Matrix a(3, 4), b(5, 2), c(3, 2);
  const std::string msg = capture<std::invalid_argument>(
      [&] { la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, c); });
  EXPECT_TRUE(contains(msg, "gemm")) << msg;
  EXPECT_TRUE(contains(msg, "4")) << msg;  // inner dim of A
  EXPECT_TRUE(contains(msg, "5")) << msg;  // inner dim of B
  EXPECT_TRUE(contains(msg, " at ")) << msg;
}

TEST(Contracts, MatrixBlockDiagnosticNamesSliceAndShape) {
  la::Matrix m(4, 4);
  const std::string msg =
      capture<std::invalid_argument>([&] { (void)m.block(2, 2, 3, 3); });
  EXPECT_TRUE(contains(msg, "Matrix::block")) << msg;
  EXPECT_TRUE(contains(msg, "4 x 4")) << msg;
}

TEST(Contracts, TrsmRejectsNonSquareTriangle) {
  la::Matrix l(3, 2), b(3, 2);
  EXPECT_THROW(la::trsm_lower_left(l, b, false), std::invalid_argument);
}

// --- adoption at the kernel boundary ----------------------------------------

TEST(Contracts, KernelExtractRejectsOutOfRangeIndex) {
  khss::util::Rng rng(5);
  la::Matrix pts(10, 2);
  rng.fill_normal(pts.data(), pts.size());
  kn::KernelMatrix km(pts, {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.0);
  const std::string msg = capture<std::invalid_argument>(
      [&] { (void)km.extract({0, 1, 99}, {0, 1}); });
  EXPECT_TRUE(contains(msg, "extract")) << msg;
  EXPECT_TRUE(contains(msg, "99")) << msg;
}

TEST(Contracts, KernelMultiplyRejectsWrongHeight) {
  khss::util::Rng rng(6);
  la::Matrix pts(10, 2);
  rng.fill_normal(pts.data(), pts.size());
  kn::KernelMatrix km(pts, {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.0);
  la::Matrix x(7, 2);
  EXPECT_THROW((void)km.multiply(x), std::invalid_argument);
}

// --- adoption at the solver / model boundaries -------------------------------

TEST(Contracts, ULVSolveDiagnosticNamesBothSizes) {
  khss::util::Rng rng(7);
  khss::data::BlobSpec spec;
  spec.n = 128;
  spec.dim = 3;
  auto ds = khss::data::make_blobs(spec, rng);
  auto tree = khss::cluster::build_cluster_tree(
      ds.points, khss::cluster::OrderingMethod::kTwoMeans, {});
  la::Matrix permuted =
      khss::cluster::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
  khss::hss::HSSOptions opts;
  khss::hss::HSSMatrix hss = khss::hss::build_hss_from_dense(km.dense(), tree, opts);
  khss::hss::ULVFactorization ulv(hss);

  la::Vector wrong(64);
  const std::string msg =
      capture<std::invalid_argument>([&] { (void)ulv.solve(wrong); });
  EXPECT_TRUE(contains(msg, "solve")) << msg;
  EXPECT_TRUE(contains(msg, "64")) << msg;
  EXPECT_TRUE(contains(msg, "128")) << msg;
}

TEST(Contracts, HSSBuildersRefuseNonSymmetricOptions) {
  // The HSS format is symmetric-only (V = U, B10 = B01^T are not stored);
  // the two leftover knobs of the removed non-symmetric build must refuse
  // by name instead of building something else.
  khss::util::Rng rng(10);
  khss::data::BlobSpec spec;
  spec.n = 64;
  spec.dim = 2;
  auto ds = khss::data::make_blobs(spec, rng);
  auto tree = khss::cluster::build_cluster_tree(
      ds.points, khss::cluster::OrderingMethod::kTwoMeans, {});
  la::Matrix permuted =
      khss::cluster::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
  khss::hss::ExtractFn extract = [&](const std::vector<int>& r,
                                     const std::vector<int>& c) {
    return km.extract(r, c);
  };
  khss::hss::SampleFn sample = [&](const la::Matrix& r) {
    return km.multiply(r);
  };

  khss::hss::HSSOptions asym;
  asym.symmetric = false;
  std::string msg = capture<ut::ContractViolation>(
      [&] { (void)khss::hss::build_hss_direct(tree, extract, asym); });
  EXPECT_TRUE(contains(msg, "build_hss_direct: HSSOptions::symmetric must "
                            "be true")) << msg;
  msg = capture<ut::ContractViolation>([&] {
    (void)khss::hss::build_hss_randomized(tree, extract, sample, {}, asym);
  });
  EXPECT_TRUE(contains(msg, "build_hss_randomized: HSSOptions::symmetric "
                            "must be true")) << msg;

  msg = capture<ut::ContractViolation>([&] {
    (void)khss::hss::build_hss_randomized(tree, extract, sample, sample, {});
  });
  EXPECT_TRUE(contains(msg, "sample_transpose must be empty")) << msg;
}

TEST(Contracts, KRRLifecycleViolationsAreStateViolations) {
  khss::krr::KRROptions opts;
  khss::krr::KRRModel model(opts);
  la::Vector y(10);
  // Unfitted model: every entry point must refuse with a logic_error whose
  // message names the function.
  const std::string msg =
      capture<std::logic_error>([&] { (void)model.solve(y); });
  EXPECT_TRUE(contains(msg, "KRRModel::solve before fit")) << msg;
  EXPECT_NO_THROW((void)model.stats());  // stats() is always safe to call
}

TEST(Contracts, KRRRejectsBadLabelsBeforeFitting) {
  khss::util::Rng rng(8);
  khss::data::BlobSpec spec;
  spec.n = 64;
  spec.dim = 2;
  auto ds = khss::data::make_blobs(spec, rng);
  khss::krr::KRRClassifier clf{khss::krr::KRROptions{}};
  std::vector<int> bad_labels(64, 3);  // must be +-1
  const std::string msg = capture<std::invalid_argument>(
      [&] { clf.fit(ds.points, bad_labels); });
  EXPECT_TRUE(contains(msg, "+-1")) << msg;
  EXPECT_TRUE(contains(msg, "3")) << msg;  // the offending label value
}

TEST(Contracts, BatchPredictorRejectsWeightHeightMismatch) {
  khss::util::Rng rng(9);
  la::Matrix pts(20, 3);
  rng.fill_normal(pts.data(), pts.size());
  kn::KernelMatrix km(pts, {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 0.0);
  la::Matrix weights(19, 2);  // one row short
  const std::string msg = capture<std::invalid_argument>(
      [&] { khss::predict::BatchPredictor pred(km, weights); });
  EXPECT_TRUE(contains(msg, "19")) << msg;
  EXPECT_TRUE(contains(msg, "20")) << msg;
}

TEST(Contracts, SMWSolveRejectsWrongRHSLength) {
  khss::util::Rng rng(10);
  khss::data::BlobSpec spec;
  spec.n = 96;
  spec.dim = 2;
  auto ds = khss::data::make_blobs(spec, rng);
  auto tree = khss::cluster::build_cluster_tree(
      ds.points, khss::cluster::OrderingMethod::kTwoMeans, {});
  la::Matrix permuted =
      khss::cluster::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
  khss::hodlr::HODLRMatrix m(km, tree, {});
  khss::hodlr::SMWFactorization smw(m);
  la::Vector wrong(95);
  EXPECT_THROW((void)smw.solve(wrong), std::invalid_argument);
}
