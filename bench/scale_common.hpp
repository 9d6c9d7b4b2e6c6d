#pragma once
// Shared harness of the scale tier (bench_scale, bench_table3_large_scale):
// one end-to-end fit+score run with one wall clock around the fit, per-phase
// timings, kernel-evaluation accounting, peak-RSS capture and the exact
// residual of the weights, plus the JSON row the BENCH_scale.json trajectory
// is built from.

#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace khss::bench {

/// Knobs of one scale run on top of CommonArgs (which carries n, dataset,
/// seed, rtol, backend).
struct ScaleRunConfig {
  cluster::OrderingMethod ordering = cluster::OrderingMethod::kTwoMeans;
  int sieve = 0;          // OrderingOptions::sieve; 0 = full ordering
  int leaf_size = 16;     // paper default; the scale bench raises it
  long eval_budget = 0;   // KernelMatrix budget; 0 = unlimited
  double h = 1.0;
  double lambda = 1.0;
  double rtol = 1e-1;
  krr::SolverBackend backend = krr::SolverBackend::kHSSRandomH;
  std::uint64_t seed = 42;
  /// Canonical --kernel spec; empty = Gaussian at bandwidth `h`.
  std::string kernel_spec;
};

/// Canonical spec of the kernel a run will actually use: the --kernel
/// override, or the dataset-default Gaussian at cfg.h.
inline std::string resolved_kernel_spec(const ScaleRunConfig& cfg) {
  if (!cfg.kernel_spec.empty()) return cfg.kernel_spec;
  kernel::KernelParams p;
  p.h = cfg.h;
  return kernel::kernel_spec(p);
}

/// Phase times + footprint of one fit+score run.
struct ScaleRunResult {
  double accuracy = 0.0;
  double fit_seconds = 0.0;  // one clock around KRRClassifier::fit
  double order_seconds = 0.0;
  double h_construction_seconds = 0.0;
  double compress_seconds = 0.0;  // includes sampling; H build broken out
  double sampling_seconds = 0.0;  // H·R sample products (Table 4 "sampling")
  double local_seconds = 0.0;     // compress minus sampling: IDs, QR, merges
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;
  double score_seconds = 0.0;
  long element_evals = 0;
  std::size_t peak_rss_bytes = 0;
  std::size_t compressed_memory_bytes = 0;
  int max_rank = 0;
  int samples = 0;   // HSS sample columns
  int restarts = 0;  // HSS sample extensions
  double residual = 0.0;  // exact_residual() of the fitted weights

  /// The fit clock minus its phases: permutation, label and kernel setup.
  double unattributed_seconds() const {
    return fit_seconds - (order_seconds + h_construction_seconds +
                          compress_seconds + factor_seconds + solve_seconds);
  }
};

/// Rows of the exact kernel the residual is estimated on.
inline constexpr int kResidualRows = 256;

/// ||(K + lambda I) w - y|| / ||y|| over kResidualRows rows of the exact
/// kernel, sampled without replacement by `seed` (perfbench's
/// sampled_residual with more rows).  `w` holds the weights and `y` the
/// +-1 labels, both in the original point order.  One row panel at a time,
/// so the extra memory is one row of K.
inline double exact_residual(const krr::KRRModel& model, const la::Vector& w,
                             const std::vector<int>& y, std::uint64_t seed) {
  const kernel::KernelMatrix& k = model.kernel();  // tree order
  const std::vector<int>& perm = model.tree().perm();
  const int n = k.n();
  std::vector<double> wp(n), row(n);
  for (int j = 0; j < n; ++j) wp[j] = w[perm[j]];
  util::Rng rng(seed);
  double num = 0.0, den = 0.0;
  for (std::size_t i : rng.sample_without_replacement(
           n, std::min(kResidualRows, n))) {
    k.row_panel(static_cast<int>(i), 0, n, row.data());
    double kw = 0.0;
    for (int j = 0; j < n; ++j) kw += row[j] * wp[j];
    const double yi = y[perm[i]];
    num += (kw - yi) * (kw - yi);
    den += yi * yi;
  }
  return std::sqrt(num / den);
}

/// One binary-classification fit+score through the standard KRR path.  With
/// cfg.eval_budget > 0 the run THROWS kernel::EvalBudgetExceeded if any
/// stage falls back to a dense n×n path — the matrix-free audit is part of
/// the measurement, not a separate mode.  The residual is taken last, after
/// the eval count, the stats and peak RSS are read, so it moves none of them.
inline ScaleRunResult run_scale(const PreparedData& d,
                                const ScaleRunConfig& cfg) {
  krr::KRROptions opts;
  opts.ordering = cfg.ordering;
  opts.backend = cfg.backend;
  opts.kernel.h = cfg.h;
  if (!cfg.kernel_spec.empty()) {
    opts.kernel = kernel::parse_kernel_spec(cfg.kernel_spec);
  }
  opts.lambda = cfg.lambda;
  opts.hss_rtol = cfg.rtol;
  opts.leaf_size = cfg.leaf_size;
  opts.sieve = cfg.sieve;
  opts.eval_budget = cfg.eval_budget;
  opts.seed = cfg.seed;

  const std::vector<int> y = d.train.one_vs_all(d.info.target_class);
  krr::KRRClassifier clf(opts);
  ScaleRunResult r;
  {
    util::Timer fit_timer;
    clf.fit(d.train.points, y);
    r.fit_seconds = fit_timer.seconds();
  }
  {
    util::Timer score_timer;
    r.accuracy = clf.accuracy(d.test.points,
                              d.test.one_vs_all(d.info.target_class));
    r.score_seconds = score_timer.seconds();
  }
  const krr::KRRStats st = clf.model().stats();
  r.order_seconds = st.cluster_seconds;
  r.h_construction_seconds = st.h_construction_seconds;
  r.compress_seconds = st.compress_seconds;
  r.sampling_seconds = st.sampling_seconds;
  r.local_seconds = st.compress_seconds - st.sampling_seconds;
  r.factor_seconds = st.factor_seconds;
  r.solve_seconds = st.solve_seconds;
  r.compressed_memory_bytes = st.compressed_memory_bytes;
  r.max_rank = st.max_rank;
  r.samples = st.samples;
  r.restarts = st.restarts;
  r.element_evals = clf.model().kernel().element_evals();
  r.peak_rss_bytes = util::peak_rss_bytes();

  const la::Vector w = clf.model().solve(la::Vector(y.begin(), y.end()));
  r.residual = exact_residual(clf.model(), w, y, cfg.seed);
  return r;
}

/// One row of the BENCH_scale.json "rows" array.
inline util::Json scale_json_row(int n, const ScaleRunConfig& cfg,
                                 const ScaleRunResult& r) {
  util::Json row = util::Json::object();
  row.set("n", static_cast<long>(n));
  row.set("kernel", resolved_kernel_spec(cfg));
  row.set("ordering", cluster::ordering_name(cfg.ordering));
  row.set("sieve", static_cast<long>(cfg.sieve));
  row.set("leaf_size", static_cast<long>(cfg.leaf_size));
  row.set("order_seconds", r.order_seconds);
  row.set("h_construction_seconds", r.h_construction_seconds);
  row.set("compress_seconds", r.compress_seconds);
  row.set("sampling_seconds", r.sampling_seconds);
  row.set("local_seconds", r.local_seconds);
  row.set("factor_seconds", r.factor_seconds);
  row.set("solve_seconds", r.solve_seconds);
  row.set("score_seconds", r.score_seconds);
  row.set("fit_seconds", r.fit_seconds);
  row.set("unattributed_seconds", r.unattributed_seconds());
  row.set("accuracy", r.accuracy);
  row.set("residual", r.residual);
  row.set("element_evals", r.element_evals);
  row.set("eval_budget", cfg.eval_budget);
  row.set("max_rank", static_cast<long>(r.max_rank));
  row.set("samples", static_cast<long>(r.samples));
  row.set("restarts", static_cast<long>(r.restarts));
  row.set("compressed_memory_mb",
          static_cast<double>(r.compressed_memory_bytes) / (1024.0 * 1024.0));
  row.set("peak_rss_mb",
          static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0));
  return row;
}

/// The scale tier's default matrix-free budget for a given n: far above what
/// an H-sampled HSS fit plus scoring actually spends, strictly below the n²
/// a dense fallback would need.  Tiny n (where n²/4 could undercut honest
/// leaf-block work) gets no budget.
inline long default_eval_budget(int n) {
  if (n < 4096) return 0;
  return static_cast<long>(n) * n / 4;
}

}  // namespace khss::bench
