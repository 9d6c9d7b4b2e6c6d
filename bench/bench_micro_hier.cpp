// Regression harness for the hierarchical solve tier (DESIGN.md "Parallel
// hierarchical solve").
//
//   ./bench_micro_hier [--sizes 2048,8192] [--nrhs 16] [--reps 2]
//                      [--rtol 1e-1] [--json BENCH_hier.json]
//
// Measures the parallel engines — HSS matvec/matmat sweeps, ULV
// factorization/solve, HODLR/SMW factorization/solve — at one thread (the
// serial baseline) and at every hardware thread, and reports the speedups
// plus the per-phase split (elimination sweep vs root LU, forward vs
// backward solve).  A second table times the ULV factor's task-DAG schedule
// (its default) against the level sweep at max threads: median, quartiles
// and DAG wins over --reps alternating runs.  With --json the numbers go to
// a cross-PR perf trajectory (BENCH_hier.json, committed snapshot at the
// repo root); CI runs this on a small fixed size and uploads the artifact.
//
// Solutions are bit-identical across thread counts and RHS splits by
// construction (pinned in tests/test_determinism.cpp), so the two columns
// time the *same* arithmetic.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cluster/ordering.hpp"
#include "hodlr/hodlr.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "kernel/kernel.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

using namespace khss;

namespace {

struct Fixture {
  cluster::ClusterTree tree;
  std::unique_ptr<kernel::KernelMatrix> km;

  static Fixture make(int n, std::uint64_t seed) {
    data::Dataset ds = data::make_paper_dataset("SUSY", n, seed);
    data::ColumnTransform t = data::fit_zscore(ds.points);
    t.apply(ds.points);

    Fixture f;
    cluster::OrderingOptions copts;
    copts.leaf_size = 16;
    f.tree = cluster::build_cluster_tree(
        ds.points, cluster::OrderingMethod::kTwoMeans, copts);
    la::Matrix permuted =
        cluster::apply_row_permutation(ds.points, f.tree.perm());
    f.km = std::make_unique<kernel::KernelMatrix>(
        std::move(permuted),
        kernel::KernelParams{kernel::KernelType::kGaussian, 1.0, 2, 1.0}, 1.0);
    return f;
  }

  hss::HSSMatrix build_hss(double rtol, std::uint64_t seed) const {
    hss::ExtractFn extract = [this](const std::vector<int>& r,
                                    const std::vector<int>& c) {
      return km->extract(r, c);
    };
    hss::SampleFn sample = [this](const la::Matrix& r) {
      return km->multiply(r);
    };
    hss::HSSOptions opts;
    opts.rtol = rtol;
    opts.seed = seed;
    return hss::build_hss_randomized(tree, extract, sample, {}, opts);
  }
};

// Best-of-reps wall time of fn() after one untimed warmup.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    fn();
    const double s = t.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

// One timed kernel at 1 thread and at max threads.
struct Pair {
  double serial = 0.0;
  double parallel = 0.0;
  double speedup() const { return parallel > 0.0 ? serial / parallel : 0.0; }
};

template <typename Fn>
Pair timed_pair(int reps, int maxthreads, Fn&& fn) {
  Pair p;
  util::set_threads(1);
  p.serial = best_seconds(reps, fn);
  util::set_threads(maxthreads);
  p.parallel = best_seconds(reps, fn);
  return p;
}

util::Json pair_json(int n, const Pair& p) {
  return util::Json::object()
      .set("n", static_cast<long>(n))
      .set("serial_seconds", p.serial)
      .set("parallel_seconds", p.parallel)
      .set("speedup", p.speedup());
}

// Median and quartiles (nearest rank; the lower middle value for an even
// count) of one engine's run times, as JSON and as a "median (q1-q3)" cell.
std::pair<util::Json, std::string> spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t last = v.size() - 1;
  const double q1 = v[last / 4], median = v[last / 2], q3 = v[3 * last / 4];
  return {util::Json::object()
              .set("median_seconds", median)
              .set("q1_seconds", q1)
              .set("q3_seconds", q3),
          util::Table::fmt(median, 4) + " (" + util::Table::fmt(q1, 4) + "-" +
              util::Table::fmt(q3, 4) + ")"};
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  bench::warn_backend_ignored(args, "drives the hierarchical kernels directly");
  bench::CommonArgs c = bench::parse_common(args, {.n = 0, .dataset = "SUSY"});
  const std::vector<int> sizes =
      bench::parse_sizes(args.get_string("sizes", "2048,8192"), args.program());
  c.n = *std::max_element(sizes.begin(), sizes.end());
  const int nrhs = std::max(1, static_cast<int>(args.get_int("nrhs", 16)));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 2)));
  const int maxthreads = util::max_threads();

  bench::print_banner(
      "micro_hier",
      "level-parallel ULV / HSS matvec / HODLR-SMW vs 1-thread baseline",
      "single node, 1 vs " + std::to_string(maxthreads) + " threads, rtol " +
          std::to_string(c.rtol));

  util::Json doc = bench::json_header("bench_micro_hier", c);
  doc.set("nrhs", static_cast<long>(nrhs));
  doc.set("reps", static_cast<long>(reps));
  doc.set("threads_max", static_cast<long>(maxthreads));
  util::Json jbuild = util::Json::array();
  util::Json jmatvec = util::Json::array();
  util::Json jmatmat = util::Json::array();
  util::Json jfactor = util::Json::array();
  util::Json jsolve1 = util::Json::array();
  util::Json jsolvek = util::Json::array();
  util::Json jcombined = util::Json::array();
  util::Json jsmw_factor = util::Json::array();
  util::Json jsmw_solve = util::Json::array();
  util::Json jfactor_sched = util::Json::array();

  util::Table tg({"kernel", "n", "t=1 s", "t=" + std::to_string(maxthreads) +
                  " s", "speedup"});
  util::Table tsched({"n", "level-sweep s (q1-q3)", "task-dag s (q1-q3)",
                      "dag wins"});
  auto add_row = [&](const std::string& name, int n, const Pair& p) {
    tg.add_row({name, std::to_string(n), util::Table::fmt(p.serial, 4),
                util::Table::fmt(p.parallel, 4),
                util::Table::fmt(p.speedup(), 2)});
  };

  for (const int n : sizes) {
    Fixture f = Fixture::make(n, c.seed);

    // HSS construction (randomized, dense sampling) — already level-parallel
    // since PR 1; kept on the trajectory for context.
    util::set_threads(maxthreads);
    util::Timer build_timer;
    hss::HSSMatrix hssm = f.build_hss(c.rtol, c.seed);
    const double build_seconds = build_timer.seconds();
    jbuild.push(util::Json::object()
                    .set("n", static_cast<long>(n))
                    .set("seconds", build_seconds)
                    .set("max_rank", static_cast<long>(hssm.max_rank()))
                    .set("memory_bytes",
                         static_cast<long>(hssm.memory_bytes())));
    tg.add_row({"hss_build", std::to_string(n), "-",
                util::Table::fmt(build_seconds, 4), "-"});

    // Level-parallel matvec sweeps.
    util::Rng rng(c.seed + 1);
    la::Vector x(n);
    for (auto& v : x) v = rng.normal();
    la::Matrix xm(n, nrhs);
    rng.fill_normal(xm.data(), xm.size());
    const Pair mv = timed_pair(reps, maxthreads,
                               [&] { la::Vector y = hssm.matvec(x); });
    add_row("hss_matvec", n, mv);
    jmatvec.push(pair_json(n, mv));
    const Pair mm = timed_pair(reps, maxthreads,
                               [&] { la::Matrix y = hssm.matmat(xm); });
    add_row("hss_matmat_" + std::to_string(nrhs), n, mm);
    jmatmat.push(pair_json(n, mm));

    // Level-parallel ULV factorization.  The per-phase split comes from one
    // dedicated instrumented run with its own total, so the JSON splits are
    // self-consistent (the best-of-reps pair totals can be smaller).
    const Pair fac = timed_pair(reps, maxthreads, [&] {
      hss::ULVFactorization ulv(hssm);
      (void)ulv;
    });
    add_row("ulv_factor", n, fac);
    {
      hss::ULVFactorization phase_run(hssm);
      jfactor.push(pair_json(n, fac)
                       .set("phase_total_seconds",
                            phase_run.stats().factor_seconds)
                       .set("tree_seconds",
                            phase_run.stats().factor_tree_seconds)
                       .set("root_seconds",
                            phase_run.stats().factor_root_seconds));
    }

    // Task-DAG factor schedule (the default above) against the retained
    // level sweep at max threads, alternated so a slow spell on a shared host
    // hits both sides.  Same bits (pinned in tests/test_ulv.cpp).
    util::set_threads(maxthreads);
    const hss::ULVSchedule schedules[] = {hss::ULVSchedule::kLevelSweep,
                                          hss::ULVSchedule::kTaskDag};
    std::vector<double> runs[2];  // seconds per run: level sweep, task DAG
    for (int r = -1; r < reps; ++r) {  // r = -1: the untimed pair
      for (int e = 0; e < 2; ++e) {
        util::Timer t;
        hss::ULVFactorization u(hssm, schedules[e]);
        if (r >= 0) runs[e].push_back(t.seconds());
      }
    }
    int dag_wins = 0;
    for (int r = 0; r < reps; ++r) dag_wins += runs[1][r] < runs[0][r];
    const auto [sweep_json, sweep_cell] = spread(runs[0]);
    const auto [dag_json, dag_cell] = spread(runs[1]);
    tsched.add_row({std::to_string(n), sweep_cell, dag_cell,
                    std::to_string(dag_wins) + "/" + std::to_string(reps)});
    jfactor_sched.push(util::Json::object()
                           .set("n", static_cast<long>(n))
                           .set("level_sweep", sweep_json)
                           .set("task_dag", dag_json)
                           .set("task_dag_wins", static_cast<long>(dag_wins)));

    // Level-parallel solve: single RHS and the multi-RHS block (the
    // one-vs-all shape), routed through the packed gemm core.
    hss::ULVFactorization ulv(hssm);
    la::Vector b(n, 1.0);
    la::Matrix bm(n, nrhs);
    rng.fill_normal(bm.data(), bm.size());
    const Pair s1 = timed_pair(reps, maxthreads,
                               [&] { la::Vector xs = ulv.solve(b); });
    add_row("ulv_solve_rhs1", n, s1);
    jsolve1.push(pair_json(n, s1));
    const Pair sk = timed_pair(reps, maxthreads,
                               [&] { la::Matrix xs = ulv.solve(bm); });
    add_row("ulv_solve_rhs" + std::to_string(nrhs), n, sk);
    {
      // Dedicated instrumented solve: forward/backward splits consistent
      // with their own total.
      la::Matrix xs = ulv.solve(bm);
      (void)xs;
      jsolvek.push(pair_json(n, sk)
                       .set("nrhs", static_cast<long>(nrhs))
                       .set("per_rhs_seconds", sk.parallel / nrhs)
                       .set("phase_total_seconds", ulv.stats().solve_seconds)
                       .set("forward_seconds",
                            ulv.stats().solve_forward_seconds)
                       .set("backward_seconds",
                            ulv.stats().solve_backward_seconds));
    }

    // The acceptance metric: one factorization plus one multi-RHS solve.
    Pair combined;
    combined.serial = fac.serial + sk.serial;
    combined.parallel = fac.parallel + sk.parallel;
    add_row("ulv_factor+solve", n, combined);
    jcombined.push(pair_json(n, combined));

    // HODLR + SMW comparator: task-parallel factor/solve recursion.
    util::set_threads(maxthreads);
    hodlr::HODLROptions hopts;
    hopts.rtol = c.rtol;
    hodlr::HODLRMatrix hm(*f.km, f.tree, hopts);
    const Pair smwf = timed_pair(reps, maxthreads, [&] {
      hodlr::SMWFactorization smw(hm);
    });
    add_row("smw_factor", n, smwf);
    jsmw_factor.push(pair_json(n, smwf));
    hodlr::SMWFactorization smw(hm);
    const Pair smws = timed_pair(reps, maxthreads, [&] {
      la::Matrix xs = smw.solve(bm);
    });
    add_row("smw_solve_rhs" + std::to_string(nrhs), n, smws);
    jsmw_solve.push(pair_json(n, smws));
  }
  util::set_threads(maxthreads);
  tg.print(std::cout, "hierarchical tier, 1 thread vs " +
                          std::to_string(maxthreads) + " (best of " +
                          std::to_string(reps) + ")");
  tsched.print(std::cout, "ULV factor schedule at " +
                              std::to_string(maxthreads) + " threads");

  doc.set("hss_build", std::move(jbuild));
  doc.set("hss_matvec", std::move(jmatvec));
  doc.set("hss_matmat", std::move(jmatmat));
  doc.set("ulv_factor", std::move(jfactor));
  doc.set("ulv_solve_rhs1", std::move(jsolve1));
  doc.set("ulv_solve_multi", std::move(jsolvek));
  doc.set("ulv_factor_solve", std::move(jcombined));
  doc.set("ulv_factor_schedule", std::move(jfactor_sched));
  doc.set("smw_factor", std::move(jsmw_factor));
  doc.set("smw_solve", std::move(jsmw_solve));
  const bool json_ok = bench::write_json_if_requested(c, doc);

  std::cout << "shape to check: ulv_factor+solve speedup >= 2.5x at n ~ 8192\n"
               "on a multi-core box (every level of the tree fans out over\n"
               "threads; the per-phase split shows the root LU and forward\n"
               "sweep shares).  On a 1-core host both columns time the same\n"
               "serial sweep and the column is ~1.0x by construction.\n";
  return json_ok ? 0 : 1;
}
