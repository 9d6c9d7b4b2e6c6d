// Regression tests pinning bit-reproducibility: the RNG stream for a fixed
// seed, randomized HSS construction run-to-run under full threading (guards
// the atomic-read fix on the shared `failed` flag in hss/build.cpp's
// parallel level loop), the promoted solver backends (HODLR/SMW, Nystrom)
// end-to-end through KRRModel, and the batched serving path
// (predict::BatchPredictor): scores must be bit-identical for any panel
// size, mini-batch split and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "kernel/kernel_spec.hpp"
#include "krr/krr.hpp"
#include "predict/batch_predictor.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;
namespace util = khss::util;

namespace {

void expect_matrices_identical(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) EXPECT_EQ(a(i, j), b(i, j));
  }
}

void expect_hss_identical(const hs::HSSMatrix& a, const hs::HSSMatrix& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t id = 0; id < a.nodes().size(); ++id) {
    const hs::HSSNode& x = a.node(static_cast<int>(id));
    const hs::HSSNode& y = b.node(static_cast<int>(id));
    EXPECT_EQ(x.jrow, y.jrow);
    expect_matrices_identical(x.d, y.d);
    expect_matrices_identical(x.u, y.u);
    expect_matrices_identical(x.b01, y.b01);
  }
}

hs::HSSMatrix build_once(std::uint64_t data_seed, std::uint64_t hss_seed) {
  util::Rng rng(data_seed);
  khss::data::BlobSpec spec;
  spec.n = 400;
  spec.dim = 4;
  spec.num_classes = 3;
  auto ds = khss::data::make_blobs(spec, rng);

  cl::OrderingOptions copts;
  copts.leaf_size = 32;
  cl::ClusterTree tree =
      cl::build_cluster_tree(ds.points, cl::OrderingMethod::kTwoMeans, copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix kernel(
      std::move(permuted),
      kn::KernelParams{kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1e-2);

  hs::HSSOptions opts;
  opts.rtol = 1e-8;
  opts.seed = hss_seed;
  return hs::build_hss_from_dense(kernel.dense(), tree, opts,
                                  /*randomized=*/true);
}

}  // namespace

// Pin the xoshiro256** output stream for seed 42: any change to seeding or
// state transitions is a silent reproducibility break for every experiment.
TEST(Determinism, RngGoldenStream) {
  util::Rng rng(42);
  EXPECT_EQ(rng.next(), 1546998764402558742ull);
  EXPECT_EQ(rng.next(), 6990951692964543102ull);
  EXPECT_EQ(rng.next(), 12544586762248559009ull);
  EXPECT_EQ(rng.next(), 17057574109182124193ull);

  util::Rng again(42);
  EXPECT_DOUBLE_EQ(again.uniform(), 0.083862971059882163);
}

TEST(Determinism, RngHelpersReproducible) {
  util::Rng a(7), b(7);
  EXPECT_EQ(a.permutation(100), b.permutation(100));
  EXPECT_EQ(a.sample_without_replacement(50, 10),
            b.sample_without_replacement(50, 10));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a.split().next(), b.split().next());
}

// Same seed, full threading, two independent builds: every generator and
// index set must be bit-identical.
TEST(Determinism, RandomizedHssBuildRunToRun) {
  util::set_threads(util::hardware_threads());
  hs::HSSMatrix first = build_once(/*data_seed=*/1, /*hss_seed=*/99);
  hs::HSSMatrix second = build_once(/*data_seed=*/1, /*hss_seed=*/99);
  ASSERT_TRUE(first.validate());
  expect_hss_identical(first, second);
}

// Thread count must not change the result either (nodes on a level are
// independent; all randomness is drawn before the parallel region).
TEST(Determinism, RandomizedHssBuildThreadInvariant) {
  util::set_threads(1);
  hs::HSSMatrix serial = build_once(/*data_seed=*/2, /*hss_seed=*/5);
  util::set_threads(util::hardware_threads());
  hs::HSSMatrix parallel = build_once(/*data_seed=*/2, /*hss_seed=*/5);
  expect_hss_identical(serial, parallel);
}

// The two ULV factor schedules (per-depth barriers vs task depend DAG) and
// every thread count must all produce the same bits, end-to-end through a
// solve: per node the work is a fixed serial sequence and node outputs are
// disjoint slots.
TEST(Determinism, UlvTaskDagMatchesLevelSweep) {
  util::set_threads(util::hardware_threads());
  hs::HSSMatrix hss = build_once(/*data_seed=*/4, /*hss_seed=*/23);

  util::Rng rng(24);
  la::Matrix b(hss.n(), 3);
  rng.fill_normal(b.data(), b.size());

  hs::ULVFactorization dag(hss, hs::ULVSchedule::kTaskDag);
  hs::ULVFactorization lvl(hss, hs::ULVSchedule::kLevelSweep);
  expect_matrices_identical(dag.solve(b), lvl.solve(b));

  util::set_threads(1);
  hs::ULVFactorization serial(hss);  // default (task DAG) on one thread
  la::Matrix x1 = serial.solve(b);
  util::set_threads(util::hardware_threads());
  expect_matrices_identical(x1, dag.solve(b));
}

namespace {

// Fit + solve through KRRModel with a fixed seed; used to pin the two
// backends promoted into the solver registry (HODLR/SMW and Nystrom).
khss::la::Vector backend_weights_once(khss::krr::SolverBackend backend,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = 300;
  spec.dim = 4;
  spec.num_classes = 2;
  auto ds = khss::data::make_blobs(spec, rng);

  khss::krr::KRROptions opts;
  opts.backend = backend;
  opts.kernel.h = 1.0;
  opts.lambda = 1.5;
  opts.hss_rtol = 1e-4;
  opts.nystrom_landmarks = 64;
  opts.seed = seed;
  khss::krr::KRRModel model(opts);
  model.fit(ds.points);

  la::Vector y(ds.n());
  util::Rng yrng(seed + 1);
  for (auto& v : y) v = yrng.normal();
  return model.solve(y);
}

void expect_weights_identical(khss::krr::SolverBackend backend) {
  util::set_threads(util::hardware_threads());
  la::Vector first = backend_weights_once(backend, 77);
  la::Vector second = backend_weights_once(backend, 77);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << khss::krr::backend_name(backend)
                                   << " at " << i;
  }
}

}  // namespace

// Same seed, full threading, two independent end-to-end runs: the solved
// weights must be bit-identical for the promoted backends.
TEST(Determinism, HodlrSmwBackendRunToRun) {
  expect_weights_identical(khss::krr::SolverBackend::kHODLR_SMW);
}

TEST(Determinism, NystromBackendRunToRun) {
  expect_weights_identical(khss::krr::SolverBackend::kNystrom);
}

namespace {

// Fitted dense model + multi-RHS weights + test batch, shared by the
// serving-path pins below.
struct PredictionFixture {
  PredictionFixture() {
    util::Rng rng(17);
    khss::data::BlobSpec spec;
    spec.n = 200;
    spec.dim = 4;
    spec.num_classes = 3;
    auto ds = khss::data::make_blobs(spec, rng);

    khss::krr::KRROptions opts;
    opts.backend = khss::krr::SolverBackend::kDenseExact;
    opts.kernel.h = 1.0;
    opts.lambda = 1.5;
    opts.seed = 17;
    model = std::make_unique<khss::krr::KRRModel>(opts);
    model->fit(ds.points);

    weights.resize(spec.n, 3);
    util::Rng wrng(18);
    for (int c = 0; c < 3; ++c) {
      la::Vector y(spec.n);
      for (auto& v : y) v = wrng.normal();
      la::Vector w = model->solve(y);
      for (int i = 0; i < spec.n; ++i) weights(i, c) = w[i];
    }

    test.resize(170, spec.dim);
    util::Rng trng(19);
    trng.fill_normal(test.data(), test.size());
  }

  std::unique_ptr<khss::krr::KRRModel> model;
  la::Matrix weights;
  la::Matrix test;
};

}  // namespace

// The serving path must be bit-reproducible for any panel size: each output
// row's accumulation order (training tile by training tile) is fixed by the
// predictor, not by the panel the row lands in.
TEST(Determinism, PredictionPanelSizeInvariant) {
  PredictionFixture fx;
  util::set_threads(util::hardware_threads());
  khss::predict::PredictOptions base;
  base.panel_rows = 64;
  const la::Matrix ref = fx.model->make_predictor(fx.weights, base)
                             .predict(fx.test);
  for (int panel : {1, 3, 19, 128, 10000}) {
    khss::predict::PredictOptions popts;
    popts.panel_rows = panel;
    la::Matrix scores =
        fx.model->make_predictor(fx.weights, popts).predict(fx.test);
    for (int i = 0; i < ref.rows(); ++i) {
      for (int c = 0; c < ref.cols(); ++c) {
        EXPECT_EQ(scores(i, c), ref(i, c)) << "panel " << panel;
      }
    }
  }
}

TEST(Determinism, PredictionThreadInvariant) {
  PredictionFixture fx;
  util::set_threads(1);
  const la::Matrix serial =
      fx.model->make_predictor(fx.weights).predict(fx.test);
  util::set_threads(util::hardware_threads());
  const la::Matrix parallel =
      fx.model->make_predictor(fx.weights).predict(fx.test);
  for (int i = 0; i < serial.rows(); ++i) {
    for (int c = 0; c < serial.cols(); ++c) {
      EXPECT_EQ(serial(i, c), parallel(i, c));
    }
  }
}

namespace {

// Shared HSS fixture for the hierarchical-solve pins below.
struct UlvFixture {
  UlvFixture() : hss(build_once(/*data_seed=*/3, /*hss_seed=*/7)) {
    util::Rng rng(21);
    b.resize(hss.n(), 5);
    rng.fill_normal(b.data(), b.size());
  }
  hs::HSSMatrix hss;
  la::Matrix b;
};

}  // namespace

// The level-parallel ULV engine must factor and solve to the exact same
// bits at every thread count (fixed shape-only work assignment; each node's
// elimination is a fixed serial computation).
TEST(Determinism, UlvFactorSolveThreadInvariant) {
  UlvFixture fx;
  util::set_threads(1);
  khss::hss::ULVFactorization serial(fx.hss);
  const la::Matrix xs = serial.solve(fx.b);
  util::set_threads(util::hardware_threads());
  khss::hss::ULVFactorization parallel(fx.hss);
  const la::Matrix xp = parallel.solve(fx.b);
  expect_matrices_identical(xs, xp);
}

// Splitting the RHS block across solve calls must not change any column's
// bits (gemm_rhs_invariant routing + width-free TRSM dispatch).
TEST(Determinism, UlvSolveRhsSplitInvariant) {
  UlvFixture fx;
  util::set_threads(util::hardware_threads());
  khss::hss::ULVFactorization ulv(fx.hss);
  const la::Matrix x = ulv.solve(fx.b);
  const int n = fx.hss.n();
  la::Matrix stitched(n, 5);
  stitched.set_block(0, 0, ulv.solve(fx.b.block(0, 0, n, 2)));
  stitched.set_block(0, 2, ulv.solve(fx.b.block(0, 2, n, 3)));
  expect_matrices_identical(x, stitched);
}

// The level-parallel matvec sweeps: thread invariance, and single-vector
// matvec() must reproduce the matching matmat() column bit-for-bit.  The
// team sizes are explicit so the pin cannot pass as 1 thread against 1 on
// a one-core host.
TEST(Determinism, HssMatvecThreadAndRhsSplitInvariant) {
  UlvFixture fx;
  util::set_threads(1);
  const la::Matrix ys = fx.hss.matmat(fx.b);
  for (const int threads : {2, 3, 4}) {
    util::set_threads(threads);
    expect_matrices_identical(ys, fx.hss.matmat(fx.b));
  }

  const int n = fx.hss.n();
  for (int j = 0; j < fx.b.cols(); ++j) {
    la::Vector xc(n);
    for (int i = 0; i < n; ++i) xc[i] = fx.b(i, j);
    la::Vector yc = fx.hss.matvec(xc);
    for (int i = 0; i < n; ++i) EXPECT_EQ(ys(i, j), yc[i]) << "col " << j;
  }
  util::set_threads(util::hardware_threads());
}

namespace {

// Dense model over a zoo kernel spec with the GP variance path attached;
// shared by the variance determinism pins below.  The zoo families routed
// here (Matern-5/2 and a sum composite) exercise the fused elementwise
// transforms added with the kernel registry, not just the Gaussian default.
struct VarianceFixture {
  explicit VarianceFixture(const std::string& spec) {
    util::Rng rng(47);
    khss::data::BlobSpec bspec;
    bspec.n = 180;
    bspec.dim = 4;
    bspec.num_classes = 3;
    auto ds = khss::data::make_blobs(bspec, rng);

    khss::krr::KRROptions opts;
    opts.backend = khss::krr::SolverBackend::kDenseExact;
    opts.kernel = kn::parse_kernel_spec(spec);
    opts.lambda = 1.5;
    opts.seed = 47;
    model = std::make_unique<khss::krr::KRRModel>(opts);
    model->fit(ds.points);

    weights.resize(bspec.n, 3);
    util::Rng wrng(48);
    for (int c = 0; c < 3; ++c) {
      la::Vector y(bspec.n);
      for (auto& v : y) v = wrng.normal();
      la::Vector w = model->solve(y);
      for (int i = 0; i < bspec.n; ++i) weights(i, c) = w[i];
    }

    test.resize(90, bspec.dim);
    util::Rng trng(49);
    trng.fill_normal(test.data(), test.size());
  }

  khss::predict::BatchPredictor make() {
    khss::predict::BatchPredictor pred = model->make_predictor(weights);
    model->attach_variance(pred);
    return pred;
  }

  std::unique_ptr<khss::krr::KRRModel> model;
  la::Matrix weights;
  la::Matrix test;
};

void expect_vectors_identical(const la::Vector& a, const la::Vector& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " at " << i;
  }
}

const char* const kVariancePinSpecs[] = {
    "matern52:h=0.9", "sum(gaussian:h=1,matern32:h=0.8:w=0.5)"};

}  // namespace

// Scores AND variances must be bit-identical at every thread count: each
// point's variance reads only its own cross-kernel column and the solver's
// RHS handling is width/thread invariant.
TEST(Determinism, VarianceThreadInvariantForZooKernels) {
  for (const char* spec : kVariancePinSpecs) {
    VarianceFixture fx(spec);
    khss::predict::BatchPredictor pred = fx.make();
    la::Matrix s1, s2;
    la::Vector v1, v2;
    util::set_threads(1);
    pred.predict_batch(fx.test, s1, &v1);
    util::set_threads(util::hardware_threads());
    pred.predict_batch(fx.test, s2, &v2);
    expect_matrices_identical(s1, s2);
    expect_vectors_identical(v1, v2, spec);
  }
}

// Splitting a request into mini-batches must not move a single bit of either
// output, for the same zoo kernels.
TEST(Determinism, VarianceBatchSplitInvariantForZooKernels) {
  util::set_threads(util::hardware_threads());
  for (const char* spec : kVariancePinSpecs) {
    VarianceFixture fx(spec);
    khss::predict::BatchPredictor pred = fx.make();
    la::Matrix one_scores;
    la::Vector one_var;
    pred.predict_batch(fx.test, one_scores, &one_var);
    for (int batch : {1, 7, 31}) {
      la::Matrix scores(fx.test.rows(), one_scores.cols());
      la::Vector var(fx.test.rows());
      la::Matrix cs;
      la::Vector cv;
      for (int ib = 0; ib < fx.test.rows(); ib += batch) {
        const int bi = std::min(batch, fx.test.rows() - ib);
        la::Matrix chunk = fx.test.block(ib, 0, bi, fx.test.cols());
        pred.predict_batch(chunk, cs, &cv);
        scores.set_block(ib, 0, cs);
        for (int i = 0; i < bi; ++i) var[ib + i] = cv[i];
      }
      expect_matrices_identical(scores, one_scores);
      expect_vectors_identical(var, one_var,
                               std::string(spec) + " batch " +
                                   std::to_string(batch));
    }
  }
}

// Streaming a test set through predict_batch() in mini-batches must
// reproduce the one-shot scores bit-for-bit, whatever the split.
TEST(Determinism, PredictionBatchSplitInvariant) {
  PredictionFixture fx;
  util::set_threads(util::hardware_threads());
  khss::predict::BatchPredictor pred = fx.model->make_predictor(fx.weights);
  const la::Matrix one_shot = pred.predict(fx.test);
  for (int batch : {1, 7, 31, 170}) {
    la::Matrix scores(fx.test.rows(), one_shot.cols());
    la::Matrix chunk_scores;
    for (int ib = 0; ib < fx.test.rows(); ib += batch) {
      const int bi = std::min(batch, fx.test.rows() - ib);
      la::Matrix chunk = fx.test.block(ib, 0, bi, fx.test.cols());
      pred.predict_batch(chunk, chunk_scores);
      scores.set_block(ib, 0, chunk_scores);
    }
    for (int i = 0; i < one_shot.rows(); ++i) {
      for (int c = 0; c < one_shot.cols(); ++c) {
        EXPECT_EQ(scores(i, c), one_shot(i, c)) << "batch " << batch;
      }
    }
  }
}
