// The traced run of one workload: the computation of the user cycle driven
// layer by layer through each module's public entry points, with spans
// (trace.hpp) around every call, and every per-layer metric.
//
// fit_layers() reproduces KRRClassifier::fit for the hss-rand-h backend call
// for call (KRRModel::fit in src/krr/krr.cpp, HSSSolver in
// src/solver/hss_solver.cpp).  The run also fits through KRRClassifier and
// refuses to report per-layer numbers unless the layer-by-layer weights and
// test scores are bit-identical to that fit's.  The fit layers and scoring
// are repeated at kScalingThreads threads for the speed-up rows.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <numeric>

#include "cluster/ordering.hpp"
#include "common.hpp"
#include "hmat/hmatrix.hpp"
#include "hss/build.hpp"
#include "hss/ulv.hpp"
#include "la/blas.hpp"
#include "predict/batch_predictor.hpp"
#include "serialize/model_io.hpp"
#include "serve/client.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace khss::perfbench {

namespace {

constexpr double kStreamShare = 0.15;  // of --seconds, for the daemon stream

/// One layer-by-layer fit.  The ULV factors reference `*hss`, which the
/// unique_ptr keeps at a fixed address.
struct LayeredFit {
  cluster::ClusterTree tree;
  std::unique_ptr<kernel::KernelMatrix> kernel;
  std::unique_ptr<hmat::HMatrix> hmat;
  std::unique_ptr<hss::HSSMatrix> hss;
  std::unique_ptr<hss::ULVFactorization> ulv;
  la::Matrix wp;       // weights in permuted order, n x 1
  la::Vector weights;  // weights in original order
  int span = -1;       // the "fit" span
  int threads = 1;
  double order_s = 0.0, hmat_s = 0.0, compress_s = 0.0, factor_s = 0.0,
         solve_s = 0.0, wall_s = 0.0;
  // Extract callback: called from inside the builder's parallel loop, so its
  // time is summed over threads.
  double extract_thread_s = 0.0, extract_flops = 0.0;
  // Sample callback (H * R): called serially.
  double matmul_s = 0.0, matmul_flops = 0.0;
  long sample_cols = 0;
  long evals = 0;

  /// Extract time per team thread (wall-equivalent).
  double extract_s() const { return extract_thread_s / threads; }
  /// The paper's Table 4 "other": compression minus sampling and extraction.
  double local_s() const { return compress_s - matmul_s - extract_s(); }
};

/// Flops of one H * x column, from the block shapes.
double hmat_flops_per_column(const hmat::HMatrix& h) {
  double flops = 0.0;
  for (const hmat::HBlock& b : h.blocks()) {
    const double m = b.row_hi - b.row_lo;
    const double n = b.col_hi - b.col_lo;
    flops += b.low_rank ? 2.0 * b.lr.rank() * (m + n) : 2.0 * m * n;
  }
  return flops;
}

void fit_layers(const Inputs& in, const krr::KRROptions& o, Trace& tr,
                int parent, LayeredFit& f) {
  f.threads = util::max_threads();
  f.span = tr.begin("fit", parent);

  int s = tr.begin("cluster.order", f.span);
  cluster::OrderingOptions copts;
  copts.leaf_size = o.leaf_size;
  copts.seed = o.seed;
  copts.sieve = o.sieve;
  f.tree = cluster::build_cluster_tree(in.train, o.ordering, copts);
  f.order_s = tr.end(s);

  s = tr.begin("kernel.bind", f.span);
  f.kernel = std::make_unique<kernel::KernelMatrix>(
      cluster::apply_row_permutation(in.train, f.tree.perm()), o.kernel,
      o.lambda);
  f.kernel->set_eval_budget(o.eval_budget);
  tr.end(s);

  s = tr.begin("hmat.build", f.span);
  hmat::HOptions hopts = o.hmatrix;
  if (hopts.rtol <= 0.0) hopts.rtol = o.hss_rtol;
  f.hmat = std::make_unique<hmat::HMatrix>(*f.kernel, f.tree, hopts);
  f.hmat_s = tr.end(s);
  const double col_flops = hmat_flops_per_column(*f.hmat);

  const int compress = tr.begin("hss.compress", f.span);
  std::mutex mu;
  const double dim = f.kernel->dim();
  hss::ExtractFn extract = [&](const std::vector<int>& rows,
                               const std::vector<int>& cols) {
    const Clock::time_point t0 = Clock::now();
    la::Matrix out = f.kernel->extract(rows, cols);
    const Clock::time_point t1 = Clock::now();
    tr.add("kernel.extract", compress, t0, t1);
    std::lock_guard<std::mutex> lock(mu);
    f.extract_thread_s += std::chrono::duration<double>(t1 - t0).count();
    f.extract_flops += 2.0 * dim * rows.size() * cols.size();
    return out;
  };
  hss::SampleFn sample = [&](const la::Matrix& r) {
    const int m = tr.begin("hmat.matmul", compress);
    la::Matrix out = f.hmat->multiply(r);
    f.matmul_s += tr.end(m);
    f.matmul_flops += col_flops * r.cols();
    f.sample_cols += r.cols();
    return out;
  };
  hss::HSSOptions hso;
  hso.rtol = o.hss_rtol;
  hso.init_samples = o.hss_init_samples;
  hso.max_rank = o.hss_max_rank;
  hso.symmetric = true;
  hso.seed = o.seed;
  f.hss = std::make_unique<hss::HSSMatrix>(
      hss::build_hss_randomized(f.tree, extract, sample, {}, hso));
  f.compress_s = tr.end(compress);

  s = tr.begin("hss.factor", f.span);
  f.ulv = std::make_unique<hss::ULVFactorization>(*f.hss);
  f.factor_s = tr.end(s);
  f.evals = f.kernel->element_evals();

  s = tr.begin("hss.solve", f.span);
  const std::vector<int>& perm = f.tree.perm();
  const int n = static_cast<int>(perm.size());
  la::Vector yp(n);
  for (int i = 0; i < n; ++i) yp[i] = in.y_train[perm[i]];
  const la::Vector wp = f.ulv->solve(yp);
  f.weights.assign(n, 0.0);
  f.wp = la::Matrix(n, 1);
  for (int i = 0; i < n; ++i) {
    f.weights[perm[i]] = wp[i];
    f.wp(i, 0) = wp[i];
  }
  f.solve_s = tr.end(s);
  f.wall_s = tr.end(f.span);
}

/// ||(K + lambda I) w - y|| / ||y|| over 64 sampled rows of the exact kernel.
double sampled_residual(const LayeredFit& f, const std::vector<int>& y,
                        std::uint64_t seed) {
  const int n = f.kernel->n();
  util::Rng rng(seed);
  const std::vector<std::size_t> pick =
      rng.sample_without_replacement(n, std::min(64, n));
  const std::vector<int> rows(pick.begin(), pick.end());
  std::vector<int> cols(n);
  std::iota(cols.begin(), cols.end(), 0);
  const la::Matrix k = f.kernel->extract(rows, cols);  // + lambda on i == j
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double kw = 0.0;
    const double* ki = k.row(static_cast<int>(i));
    for (int j = 0; j < n; ++j) kw += ki[j] * f.wp(j, 0);
    const double yi = y[f.tree.perm()[rows[i]]];
    num += (kw - yi) * (kw - yi);
    den += yi * yi;
  }
  return std::sqrt(num / den);
}

/// Packed GEMM rate at the current thread count: median of 5 products of
/// two 1024 x 1024 matrices.
double gemm_gflops() {
  const int n = 1024;
  la::Matrix a(n, n), b(n, n), c(n, n);
  util::Rng rng(1);
  rng.fill_normal(a.data(), a.size());
  rng.fill_normal(b.data(), b.size());
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    t.push_back(timed([&] {
      la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, c);
    }));
  }
  return 2.0 * n * n * n / median(t) * 1e-9;
}

struct ServeDelta {
  double points = 0.0, batches = 0.0, busy_s = 0.0;
};

ServeDelta server_totals(const serve::ModelServer& server) {
  ServeDelta d;
  for (const auto& [name, st] : server.stats()) {
    d.points += static_cast<double>(st.points);
    d.batches += static_cast<double>(st.batches);
    d.busy_s += st.busy_seconds;
  }
  return d;
}

}  // namespace

void run_layers(const RunConfig& cfg, Result& r) {
  const Workload& w = cfg.workload;
  Trace tr;
  const int root = tr.begin("run", -1);

  int s = tr.begin("data.load", root);
  const Inputs in =
      load_inputs(cfg.train_csv, cfg.test_csv, cfg.info.target_class);
  const double data_load_s = tr.end(s);
  r.op(in.train.rows() == w.n_train && in.test.rows() == w.n_test,
       "setup: inputs have the workload's shape");
  const int n = in.train.rows();
  const int m = in.test.rows();

  // The untraced reference fit through the user-level API.
  const krr::KRROptions opts = paper_options(cfg.info);
  krr::KRRClassifier clf(opts);
  const double clf_fit_s = timed([&] { clf.fit(in.train, in.y_train); });
  const long clf_evals = clf.model().kernel().element_evals();
  const la::Matrix w_ref = classifier_weights(clf, in.y_train);
  const la::Vector scores_ref = clf.decision_function(in.test);
  r.op(all_finite(scores_ref) &&
           accuracy_of(scores_ref, in.y_test) >= w.accuracy_floor,
       "score: finite test scores that clear the accuracy floor");

  // Layer by layer at the pinned thread count, between two runs of the
  // reference work, which tell how much slower than nominal the host ran.
  Calibrated measure;
  auto f = std::make_unique<LayeredFit>();
  (void)measure([&] { fit_layers(in, opts, tr, root, *f); });
  s = tr.begin("predict.freeze", root);
  auto pred = std::make_unique<predict::BatchPredictor>(*f->kernel, f->wp);
  const double freeze_s = tr.end(s);
  s = tr.begin("predict.score", root);
  const la::Matrix scores = pred->predict(in.test);
  const double score_s = tr.end(s);
  const bool identical =
      same_bits(f->weights.data(), w_ref.data(), static_cast<std::size_t>(n)) &&
      same_bits(scores.data(), scores_ref.data(), static_cast<std::size_t>(m));
  r.op(identical,
       "traced fit: weights and test scores bit-identical to "
       "KRRClassifier::fit");
  if (!identical) return;  // no per-layer numbers for a diverged path
  std::printf("kernel evals: layered %ld, KRRClassifier::fit %ld\n", f->evals,
              clf_evals);

  const double predict_flops =
      2.0 * m * pred->support_size() * (in.train.cols() + pred->num_outputs());
  pred.reset();
  const double residual = sampled_residual(*f, in.y_train, cfg.seed);
  const double gemm_rate = gemm_gflops();

  r.metric("data.load_s", data_load_s, "s");
  r.metric("data.mb_per_s", in.csv_mb / data_load_s, "MB/s");
  r.metric("cluster.order_s", f->order_s, "s");
  r.metric("kernel.evals", static_cast<double>(f->evals), "count");
  r.metric("kernel.evals_per_n2",
           static_cast<double>(f->evals) / (static_cast<double>(n) * n),
           "ratio");
  r.metric("kernel.extract_s", f->extract_s(), "s");
  r.metric("kernel.extract_gflops", f->extract_flops / f->extract_s() * 1e-9,
           "GF/s");
  r.metric("hmat.build_s", f->hmat_s, "s");
  r.metric("hmat.memory_mb",
           static_cast<double>(f->hmat->stats().memory_bytes) / kMiB, "MB");
  r.metric("hmat.matmul_s", f->matmul_s, "s");
  r.metric("hmat.sample_cols", static_cast<double>(f->sample_cols), "count");
  r.metric("hmat.matmul_gflops", f->matmul_flops / f->matmul_s * 1e-9,
           "GF/s");
  r.metric("hss.compress_s", f->compress_s, "s");
  r.metric("hss.local_s", f->local_s(), "s");
  r.metric("hss.max_rank", f->hss->max_rank(), "count");
  r.metric("hss.memory_mb", static_cast<double>(f->hss->memory_bytes()) / kMiB,
           "MB");
  r.metric("hss.sample_use",
           static_cast<double>(f->hss->samples_used_) / f->sample_cols,
           "ratio");
  r.metric("hss.factor_s", f->factor_s, "s");
  r.metric("hss.solve_s", f->solve_s, "s");
  r.metric("hss.factor_mb", static_cast<double>(f->ulv->memory_bytes()) / kMiB,
           "MB");
  r.metric("predict.freeze_s", freeze_s, "s");
  r.metric("predict.score_s", score_s, "s");
  r.metric("predict.gflops", predict_flops / score_s * 1e-9, "GF/s");
  r.metric("krr.residual", residual, "ratio");
  r.metric("krr.self_s", f->wall_s - tr.children_seconds(f->span), "s");
  r.metric("la.gemm_gflops", gemm_rate, "GF/s");
  r.metric("bench.trace_overhead", f->wall_s / clf_fit_s - 1.0, "ratio");
  r.metric("bench.ref_slowdown", median(measure.refs()) / kReferenceNominalS,
           "ratio");

  // The fit layers and scoring again at kScalingThreads threads; each
  // speed-up is the one-thread time over that team's time.
  const double one_order = f->order_s, one_hmat = f->hmat_s,
               one_matmul = f->matmul_s, one_local = f->local_s(),
               one_factor = f->factor_s;
  f.reset();
  util::set_threads(kScalingThreads);
  const int scaled =
      tr.begin("threads=" + std::to_string(kScalingThreads), root);
  {
    LayeredFit team;
    fit_layers(in, opts, tr, scaled, team);
    predict::BatchPredictor pt(*team.kernel, team.wp);
    s = tr.begin("predict.score", scaled);
    (void)pt.predict(in.test);
    const double team_score_s = tr.end(s);
    r.metric("cluster.order_speedup", one_order / team.order_s, "x");
    r.metric("hmat.build_speedup", one_hmat / team.hmat_s, "x");
    r.metric("hmat.matmul_speedup", one_matmul / team.matmul_s, "x");
    r.metric("hss.local_speedup", one_local / team.local_s(), "x");
    r.metric("hss.factor_speedup", one_factor / team.factor_s, "x");
    r.metric("predict.score_speedup", score_s / team_score_s, "x");
  }
  tr.end(scaled);
  util::set_threads(kThreads);

  // Serving layers: serialize, small-batch predict, the daemon.
  const std::string model_path = cfg.work + "/model.khss";
  serialize::save_model(model_path, clf.model(), w_ref);
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(model_path)) / kMiB;
  std::vector<double> load_s;
  std::unique_ptr<serialize::LoadedModel> loaded;
  for (int i = 0; i < 3; ++i) {
    loaded.reset();
    s = tr.begin("serialize.load", root);
    loaded = std::make_unique<serialize::LoadedModel>(
        serialize::load_model(model_path));
    load_s.push_back(tr.end(s));
  }
  std::vector<double> batch_ms;
  la::Matrix out;
  // One request of the workload's shape, repeated for up to 200 samples or
  // 2 seconds.
  const int rows_per_request = w.rows_per_request;
  double batch_total_s = 0.0;
  for (int i = 0; i < 200 && (i < 10 || batch_total_s < 2.0); ++i) {
    const int r0 = (i * rows_per_request) % (m - rows_per_request + 1);
    const la::Matrix rows =
        in.test.block(r0, 0, rows_per_request, in.test.cols());
    s = tr.begin("predict.batch", root);
    loaded->predictor.predict_batch(rows, out);
    batch_ms.push_back(1e3 * tr.end(s));
    batch_total_s += batch_ms.back() * 1e-3;
  }
  loaded.reset();

  const std::string socket = cfg.work + "/t.sock";
  s = tr.begin("serve.deploy", root);
  std::unique_ptr<serve::ModelServer> server = deploy(model_path, socket);
  tr.end(s);
  std::vector<double> ping_us;
  {
    serve::ServeClient client(socket);
    for (int i = 0; i < 200; ++i) {
      ping_us.push_back(1e6 * timed([&] { client.ping(); }));
    }
  }
  const ServeDelta before = server_totals(*server);
  // Several clients, so the batcher has requests to coalesce.
  s = tr.begin("serve.stream", root);
  const StreamStats stream =
      run_stream(socket, in.test, scores_ref, w.rows_per_request,
                 kCoalescingClients, kStreamShare * cfg.seconds);
  tr.end(s);
  const ServeDelta after = server_totals(*server);
  server->stop();
  r.ops(stream.requests, stream.failed,
        "stream: replies bit-identical to in-process scores");

  r.metric("serialize.load_s", median(load_s), "s");
  r.metric("serialize.mb_per_s", file_mb / median(load_s), "MB/s");
  r.metric("serialize.file_mb", file_mb, "MB");
  r.metric("predict.batch_ms", median(batch_ms), "ms");
  r.metric("serve.ping_us", median(ping_us), "us");
  r.metric("serve.rows_per_batch",
           (after.points - before.points) / (after.batches - before.batches),
           "rows");
  r.metric("serve.busy_frac", (after.busy_s - before.busy_s) / stream.wall_s,
           "fraction");
  r.metric("serve.p50_ms", quantile(stream.latency_ms, 0.5), "ms");
  r.metric("serve.p99_ms", quantile(stream.latency_ms, 0.99), "ms");
  r.metric("serve.requests", static_cast<double>(stream.requests), "count");
  tr.end(root);

  const std::string rows_path = cfg.work + "/trace-" + w.name + ".json";
  const std::string chrome_path =
      cfg.work + "/trace-" + w.name + ".chrome.json";
  r.op(tr.write(rows_path, chrome_path), "trace: span files written");
  std::printf("spans: %s\nchrome trace: %s\n", rows_path.c_str(),
              chrome_path.c_str());
}

}  // namespace khss::perfbench
