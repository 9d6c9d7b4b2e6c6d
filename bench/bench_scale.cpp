// Scale tier: end-to-end fit+score from toy n up to 10^6 on one box.
//
//   ./bench_scale [--sizes 10000,100000,1000000] [--dataset SUSY]
//                 [--ordering 2MN] [--sieve 8192] [--leaf 128]
//                 [--ntest 2000] [--backend hss-rand-h] [--kernel SPEC]
//                 [--json out.json]
//
// The paper trains on 0.5M-4.5M points; this harness proves the single-node
// pipeline covers that range: sieved clustering keeps the ordering O(n log n),
// the H-sampled randomized HSS construction keeps compression near-linear,
// and a KernelMatrix eval budget of n^2/4 makes the run FAIL (rather than
// quietly thrash) if any stage falls back to a dense n x n path.  Per-phase
// seconds (order/compress/factor/solve/score) under one fit clock, with
// the unattributed rest, kernel-evaluation counts, peak RSS and the exact
// residual ||(K + lambda I) w - y|| / ||y|| on 256 sampled kernel rows land
// in the JSON rows — the committed BENCH_scale.json perf trajectory at the
// repo root.

#include "scale_common.hpp"

using namespace khss;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  bench::CommonArgs c = bench::parse_common(
      args, {.n = 0, .backend = krr::SolverBackend::kHSSRandomH});
  const std::vector<int> sizes =
      bench::parse_sizes(args.get_string("sizes", "10000,100000"),
                         args.program());
  const int ntest = static_cast<int>(args.get_int("ntest", 2000));
  const int sieve = static_cast<int>(args.get_int("sieve", 8192));
  const int leaf = static_cast<int>(args.get_int("leaf", 128));
  const cluster::OrderingMethod ordering =
      cluster::ordering_from_name(args.get_string("ordering", "2MN"));

  bench::print_banner(
      "scale tier", "fit+score wall clock and memory vs n",
      "0.5M-4.5M Cori-scale training -> single-node sweep to 10^6 "
      "(sieved ordering + H sampling, matrix-free budget enforced)");

  const data::PaperDatasetInfo info = data::paper_dataset_info(c.dataset);

  util::Json doc = bench::json_header("scale", c);
  doc.set("ordering", cluster::ordering_name(ordering));
  doc.set("sieve", static_cast<long>(sieve));
  doc.set("leaf_size", static_cast<long>(leaf));
  doc.set("ntest", static_cast<long>(ntest));
  util::Json rows_json = util::Json::array();

  util::Table table({"n", "order (s)", "H build (s)", "compress (s)",
                     "sampling (s)", "local (s)", "factor (s)", "solve (s)",
                     "score (s)", "fit (s)", "unattr. (s)", "acc", "resid",
                     "evals/n^2", "rank", "samples", "mem (MB)",
                     "peak RSS (MB)"});
  for (const int n : sizes) {
    bench::PreparedData d = bench::prepare(c.dataset, n, ntest, c.seed);

    bench::ScaleRunConfig cfg;
    cfg.ordering = ordering;
    cfg.sieve = sieve;
    cfg.leaf_size = leaf;
    cfg.eval_budget = bench::default_eval_budget(n);
    cfg.h = info.h;
    cfg.lambda = info.lambda;
    cfg.rtol = c.rtol;
    cfg.backend = c.backend;
    cfg.seed = c.seed;
    cfg.kernel_spec = c.kernel_spec;

    const bench::ScaleRunResult r = bench::run_scale(d, cfg);
    const double evals_frac = static_cast<double>(r.element_evals) /
                              (static_cast<double>(n) * n);
    table.add_row(
        {util::Table::fmt_int(n), util::Table::fmt(r.order_seconds, 2),
         util::Table::fmt(r.h_construction_seconds, 2),
         util::Table::fmt(r.compress_seconds, 2),
         util::Table::fmt(r.sampling_seconds, 2),
         util::Table::fmt(r.local_seconds, 2),
         util::Table::fmt(r.factor_seconds, 2),
         util::Table::fmt(r.solve_seconds, 2),
         util::Table::fmt(r.score_seconds, 2),
         util::Table::fmt(r.fit_seconds, 2),
         util::Table::fmt(r.unattributed_seconds(), 2),
         util::Table::fmt_pct(r.accuracy), util::Table::fmt_sci(r.residual),
         util::Table::fmt_sci(evals_frac), util::Table::fmt_int(r.max_rank),
         util::Table::fmt_int(r.samples),
         util::Table::fmt_mb(static_cast<double>(r.compressed_memory_bytes)),
         util::Table::fmt_mb(static_cast<double>(r.peak_rss_bytes))});
    rows_json.push(bench::scale_json_row(n, cfg, r));
  }
  doc.set("rows", rows_json);
  table.print(std::cout, "scale tier: per-phase fit+score trajectory");
  std::cout << "note: evals/n^2 << 1 plus the enforced n^2/4 eval budget is\n"
               "the matrix-free witness: no stage materialized or swept a\n"
               "dense n x n kernel.  Peak RSS is process-wide (includes\n"
               "earlier, larger sweep entries).  resid is the exact\n"
               "residual of the weights on 256 sampled kernel rows, taken\n"
               "after the eval count and peak RSS.\n";

  if (!bench::write_json_if_requested(c, doc)) return 1;
  return 0;
}
