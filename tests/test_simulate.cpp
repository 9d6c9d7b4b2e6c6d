// Tests for the simulated distributed-memory scaling model.
#include <gtest/gtest.h>

#include "cluster/ordering.hpp"
#include "data/synthetic.hpp"
#include "hss/build.hpp"
#include "kernel/kernel.hpp"
#include "simulate/scaling.hpp"
#include "util/rng.hpp"

namespace cl = khss::cluster;
namespace hs = khss::hss;
namespace kn = khss::kernel;
namespace la = khss::la;
namespace sim = khss::simulate;

namespace {

hs::HSSMatrix build_test_hss(int n, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  khss::data::BlobSpec spec;
  spec.n = n;
  spec.dim = 5;
  spec.num_classes = 4;
  spec.center_spread = 5.0;
  auto ds = khss::data::make_blobs(spec, rng);
  cl::OrderingOptions copts;
  copts.leaf_size = 16;
  cl::ClusterTree tree = cl::build_cluster_tree(
      ds.points, cl::OrderingMethod::kTwoMeans, copts);
  la::Matrix permuted = cl::apply_row_permutation(ds.points, tree.perm());
  kn::KernelMatrix km(std::move(permuted),
                      {kn::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
  hs::HSSOptions opts;
  opts.rtol = 1e-2;
  return hs::build_hss_from_dense(km.dense(), tree, opts);
}

}  // namespace

TEST(UlvFlops, PositiveAndCubicGrowth) {
  EXPECT_GT(sim::ulv_node_flops(16, 8), 0.0);
  EXPECT_EQ(sim::ulv_node_flops(0, 0), 0.0);
  // Doubling m with fixed ranks grows at least 4x (super-quadratic terms).
  const double f1 = sim::ulv_node_flops(32, 8);
  const double f2 = sim::ulv_node_flops(64, 8);
  EXPECT_GT(f2, 4.0 * f1);
}

TEST(Workloads, LevelsAndMergeBytesConsistent) {
  hs::HSSMatrix hss = build_test_hss(512, 1);
  const auto work = sim::extract_workloads(hss);
  ASSERT_EQ(work.size(), hss.nodes().size());
  EXPECT_EQ(work[0].level, 0);  // root
  for (std::size_t id = 0; id < work.size(); ++id) {
    EXPECT_GE(work[id].flops, 0.0);
    if (hss.nodes()[id].is_leaf()) {
      EXPECT_EQ(work[id].merge_bytes, 0.0);
    } else if (hss.nodes()[id].left != -1 &&
               hss.nodes()[hss.nodes()[id].right].urank() > 0) {
      EXPECT_GT(work[id].merge_bytes, 0.0);
    }
  }
}

TEST(Simulation, SerialHasNoCommunication) {
  hs::HSSMatrix hss = build_test_hss(512, 2);
  const auto res = sim::simulate_ulv_factorization(hss, 1);
  EXPECT_EQ(res.comm_seconds, 0.0);
  EXPECT_GT(res.compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(res.total_seconds, res.compute_seconds);
}

TEST(Simulation, SpeedupBoundedByRankCount) {
  hs::HSSMatrix hss = build_test_hss(1024, 3);
  const auto serial = sim::simulate_ulv_factorization(hss, 1);
  for (int p : {2, 8, 64, 1024}) {
    const auto par = sim::simulate_ulv_factorization(hss, p);
    const double speedup = serial.total_seconds / par.total_seconds;
    EXPECT_GE(speedup, 0.9) << p;       // never materially slower
    EXPECT_LE(speedup, p + 1e-9) << p;  // never superlinear
  }
}

TEST(Simulation, ModerateParallelismHelps) {
  hs::HSSMatrix hss = build_test_hss(1024, 4);
  const auto serial = sim::simulate_ulv_factorization(hss, 1);
  const auto p8 = sim::simulate_ulv_factorization(hss, 8);
  EXPECT_LT(p8.total_seconds, 0.7 * serial.total_seconds);
}

TEST(Simulation, EfficiencyDeclinesWithRankCount) {
  hs::HSSMatrix hss = build_test_hss(1024, 5);
  double prev = 2.0;
  for (int p : {1, 8, 64, 512}) {
    const auto res = sim::simulate_ulv_factorization(hss, p);
    EXPECT_LE(res.efficiency, prev + 1e-9) << p;
    prev = res.efficiency;
  }
}

TEST(Simulation, CommunicationAppearsAtHighRankCounts) {
  hs::HSSMatrix hss = build_test_hss(512, 6);
  const auto small = sim::simulate_ulv_factorization(hss, 2);
  const auto large = sim::simulate_ulv_factorization(hss, 512);
  EXPECT_GE(large.comm_seconds, small.comm_seconds);
  EXPECT_GT(large.comm_seconds, 0.0);
}

TEST(Simulation, NonPowerOfTwoRanksRoundedDown) {
  hs::HSSMatrix hss = build_test_hss(512, 7);
  const auto a = sim::simulate_ulv_factorization(hss, 48);
  const auto b = sim::simulate_ulv_factorization(hss, 32);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
}

TEST(Simulation, SlowerMachineScalesTimes) {
  hs::HSSMatrix hss = build_test_hss(512, 8);
  sim::MachineModel fast, slow;
  slow.flops_per_second = fast.flops_per_second / 10.0;
  const auto f = sim::simulate_ulv_factorization(hss, 1, fast);
  const auto s = sim::simulate_ulv_factorization(hss, 1, slow);
  EXPECT_NEAR(s.total_seconds, 10.0 * f.total_seconds,
              1e-9 * s.total_seconds);
}
