// Table 3: large-scale prediction accuracy at the paper's operating points.
//
//   ./bench_table3_large_scale [--n 10000] [--ntest 1000] [--sieve 0]
//                              [--json out.json]
//
// The paper trains on 0.5M-4.5M points on 1,024 Cori cores; the default here
// is scaled to a single node (the pipeline is the same H-accelerated HSS
// path — raise --n as far as memory/time allow, with --sieve keeping the
// ordering linear at large n).  The paper's (h, lambda) for Table 3 differ
// from Table 2 (they were tuned at scale); both are shown.  Runs route
// through the scale harness (scale_common.hpp), so --json emits the same
// per-phase row schema as bench_scale.

#include "scale_common.hpp"

using namespace khss;

namespace {
struct Table3Row {
  const char* name;
  double paper_n_millions;
  double h;
  double lambda;
  double paper_acc;
};
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  bench::CommonArgs c = bench::parse_common(
      args, {.n = 10000, .backend = krr::SolverBackend::kHSSRandomH});
  const int n = c.n;
  const int ntest = static_cast<int>(args.get_int("ntest", 1000));
  const int sieve = static_cast<int>(args.get_int("sieve", 0));

  bench::print_banner(
      "Table 3", "large-scale prediction on test data",
      "0.5M-4.5M Cori-scale training -> n=" + std::to_string(n) +
          " single-node twin runs, same pipeline (H sampling + HSS ULV)");

  // The paper's Table 3 rows: dataset, N, d, h, lambda, accuracy.
  const std::vector<Table3Row> rows = {
      {"SUSY", 4.5, 0.08, 10.0, 0.73},
      {"MNIST", 1.6, 1.1, 10.0, 0.99},
      {"COVTYPE", 0.5, 0.07, 0.3, 0.99},
      {"HEPMASS", 1.0, 0.7, 0.5, 0.90},
  };

  util::Json doc = bench::json_header("table3_large_scale", c);
  doc.set("ntest", static_cast<long>(ntest));
  doc.set("sieve", static_cast<long>(sieve));
  util::Json rows_json = util::Json::array();

  util::Table table({"dataset", "paper N", "N here", "d", "h", "lambda",
                     "acc here", "paper acc", "fit (s)", "mem (MB)",
                     "max rank"});
  for (const auto& row : rows) {
    bench::PreparedData d = bench::prepare(row.name, n, ntest, c.seed);

    bench::ScaleRunConfig cfg;
    cfg.ordering = cluster::OrderingMethod::kTwoMeans;
    cfg.sieve = sieve;
    cfg.h = row.h;
    cfg.lambda = row.lambda;
    cfg.rtol = c.rtol;
    cfg.backend = c.backend;
    cfg.seed = c.seed;

    const bench::ScaleRunResult r = bench::run_scale(d, cfg);

    table.add_row({row.name, util::Table::fmt(row.paper_n_millions, 1) + "M",
                   util::Table::fmt_int(d.train.n()),
                   util::Table::fmt_int(d.info.dim),
                   util::Table::fmt(row.h, 2), util::Table::fmt(row.lambda, 1),
                   util::Table::fmt_pct(r.accuracy),
                   util::Table::fmt_pct(row.paper_acc),
                   util::Table::fmt(r.fit_seconds, 2),
                   util::Table::fmt_mb(
                       static_cast<double>(r.compressed_memory_bytes)),
                   util::Table::fmt_int(r.max_rank)});
    util::Json jrow = bench::scale_json_row(d.train.n(), cfg, r);
    jrow.set("dataset", row.name);
    jrow.set("paper_accuracy", row.paper_acc);
    rows_json.push(std::move(jrow));
  }
  doc.set("rows", rows_json);
  table.print(std::cout, "Table 3: large-scale prediction");
  std::cout << "note: the paper's (h, lambda) were tuned at million-point\n"
               "scale; at scaled-down n the same operating points can sit off\n"
               "the accuracy plateau (h=0.07-0.08 approaches the identity\n"
               "regime).  The check is that the pipeline runs the paper's\n"
               "configuration end-to-end and accuracy lands near the paper's\n"
               "for the datasets whose twins are scale-robust.\n";

  if (!bench::write_json_if_requested(c, doc)) return 1;
  return 0;
}
