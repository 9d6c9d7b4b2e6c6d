// The untraced user cycle of one workload, through the library's user-level
// API, with every end-to-end metric:
//
//   setup    data::load_csv of train + test and the z-score fit/apply;
//            then serialize::load_model + daemon start + first ping
//   fit      krr::KRRClassifier::fit
//   score    accuracy on the test set (the steps of
//            krr::KRRClassifier::accuracy)
//   retune   krr::KRRClassifier::set_lambda through {lambda/2, 2 lambda,
//            lambda} (diagonal shift + ULV refactor + re-solve)
//   stream   kClients closed-loop serve::ServeClient connections sending
//            score requests to a serve::ModelServer
//
// After the setup, the timed operations run in rounds (fit, kScoresPerRound
// scorings, lambda sweep, stream segment) for most of --seconds, so that
// every metric's repetitions spread over the whole run, and each metric is
// the median of its repetitions.  Every gated timing is CPU seconds at the reference
// speed (Calibrated in common.hpp); the measured CPU and wall-clock medians
// are printed next to them.

#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "serialize/model_io.hpp"
#include "util/memory.hpp"

namespace khss::perfbench {

namespace {

/// Scoring is the shortest operation of a round; repeating it gives its
/// median as many samples as the sweep's three retunes give theirs.
constexpr int kScoresPerRound = 3;

/// True when another round is due: fewer than `min_rounds` done, or the
/// next one is predicted to end within `budget` seconds.
bool another_round(int done, int min_rounds, double elapsed, double budget) {
  return done < min_rounds || elapsed * (done + 1) / done <= budget;
}

std::vector<double> norm_s(const std::vector<Cost>& v) {
  std::vector<double> out;
  for (const Cost& c : v) out.push_back(c.norm_s());
  return out;
}

std::vector<double> cpu_s(const std::vector<Cost>& v) {
  std::vector<double> out;
  for (const Cost& c : v) out.push_back(c.cpu_s);
  return out;
}

std::vector<double> wall_s(const std::vector<Cost>& v) {
  std::vector<double> out;
  for (const Cost& c : v) out.push_back(c.wall_s);
  return out;
}

void list(const char* name, const std::vector<double>& v) {
  std::printf("%s:", name);
  for (const double x : v) std::printf(" %.4f", x);
  std::printf("\n");
}

}  // namespace

void run_cycle(const RunConfig& cfg, Result& r) {
  const Workload& w = cfg.workload;

  // The whole cycle runs on one CPU: the operations, the reference runs
  // beside them and the daemon's and client's threads all see the same
  // core, and a request's hand-offs between threads stay on it.
  pin_to_current_cpu();
  Calibrated measure;
  Inputs in;
  std::vector<Cost> setup;
  for (int i = 0; i < w.setup_reps; ++i) {
    setup.push_back(measure([&] {
      in = load_inputs(cfg.train_csv, cfg.test_csv, cfg.info.target_class);
    }));
    r.op(in.train.rows() == w.n_train && in.test.rows() == w.n_test,
         "setup: inputs have the workload's shape");
  }

  // An untimed first fit warms the allocator and caches.  Its accuracy must
  // clear the floor, every later fit must reproduce it (the fit is
  // deterministic at a fixed thread count), and the daemon serves it.
  const krr::KRROptions opts = paper_options(cfg.info);
  auto clf = std::make_unique<krr::KRRClassifier>(opts);
  clf->fit(in.train, in.y_train);
  la::Vector expected = clf->decision_function(in.test);
  const double accuracy = accuracy_of(expected, in.y_test);
  r.op(all_finite(expected) && accuracy >= w.accuracy_floor,
       "warm-up fit: finite scores, accuracy " + std::to_string(accuracy) +
           " (floor " + std::to_string(w.accuracy_floor) + ")");
  const krr::KRRStats st = clf->model().stats();
  const double model_mb =
      static_cast<double>(st.compressed_memory_bytes +
                          st.factor_memory_bytes) / kMiB;

  // Deploy: save, then load into a fresh daemon setup_reps times; the last
  // one serves every stream segment, whose replies must match the
  // in-process scores bit for bit.
  const std::string model_path = cfg.work + "/model.khss";
  serialize::save_model(model_path, clf->model(),
                        classifier_weights(*clf, in.y_train));
  clf.reset();
  std::vector<Cost> deploy_cost;
  std::unique_ptr<serve::ModelServer> server;
  std::string socket;
  for (int i = 0; i < w.setup_reps; ++i) {
    if (server) server->stop();
    socket = cfg.work + "/d" + std::to_string(i) + ".sock";
    deploy_cost.push_back(
        measure([&] { server = deploy(model_path, socket); }));
    r.op(true, "deploy");
  }
  if (cfg.corrupt_expected) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, expected.data(), sizeof bits);
    bits ^= 1;
    std::memcpy(expected.data(), &bits, sizeof bits);
  }

  // The rounds.  Each lambda sweep ends back at the paper's lambda.
  const double lambdas[3] = {0.5 * opts.lambda, 2.0 * opts.lambda,
                             opts.lambda};
  std::vector<Cost> fit, score, retune, stream;
  std::vector<double> stream_rows, stream_p50_ms;
  const Clock::time_point start = Clock::now();
  do {
    clf.reset();  // release the previous model before the next fit
    clf = std::make_unique<krr::KRRClassifier>(opts);
    fit.push_back(measure([&] { clf->fit(in.train, in.y_train); }));
    r.op(true, "fit");
    // KRRClassifier::accuracy is decision_function, sign and compare; the
    // same steps are timed here so the scores stay available for checks.
    for (int k = 0; k < kScoresPerRound; ++k) {
      la::Vector scores;
      double acc = 0.0;
      score.push_back(measure([&] {
        scores = clf->decision_function(in.test);
        acc = accuracy_of(scores, in.y_test);
      }));
      r.op(all_finite(scores) && acc == accuracy,
           "score: finite scores, accuracy " + std::to_string(acc) +
               " (warm-up fit " + std::to_string(accuracy) + ")");
    }
    for (const double lambda : lambdas) {
      retune.push_back(measure([&] { clf->set_lambda(lambda); }));
      r.op(true, "retune");
    }
    StreamStats seg;
    stream.push_back(measure([&] {
      seg = run_stream(socket, in.test, expected, w.rows_per_request,
                       kClients, w.segment_share * cfg.seconds);
    }));
    r.ops(seg.requests, seg.failed,
          "stream: replies bit-identical to in-process scores");
    stream_rows.push_back(static_cast<double>(seg.rows));
    stream_p50_ms.push_back(quantile(seg.latency_ms, 0.5));
  } while (another_round(static_cast<int>(fit.size()), w.min_rounds,
                         seconds_since(start), w.rounds_share * cfg.seconds));
  server->stop();
  const la::Vector swept = clf->decision_function(in.test);
  r.op(all_finite(swept) && accuracy_of(swept, in.y_test) >= w.accuracy_floor,
       "retune: scores after the sweeps are finite and clear the floor");

  const auto rate = [&](const std::vector<double>& seconds) {
    std::vector<double> out;
    for (std::size_t k = 0; k < seconds.size(); ++k) {
      out.push_back(stream_rows[k] / seconds[k]);
    }
    return out;
  };
  r.metric("setup_s", median(norm_s(setup)) + median(norm_s(deploy_cost)),
           "s");
  r.metric("fit_norm_s", median(norm_s(fit)), "s");
  r.metric("score_pts_per_norm_s", w.n_test / median(norm_s(score)), "pts/s");
  r.metric("retune_norm_s", median(norm_s(retune)), "s");
  r.metric("accuracy", accuracy, "fraction");
  r.metric("model_mb", model_mb, "MB");
  r.metric("peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / kMiB,
           "MB");
  r.metric("serve_pts_per_norm_s", median(rate(norm_s(stream))), "pts/s");

  list("setup norm_s reps", norm_s(setup));
  list("deploy norm_s reps", norm_s(deploy_cost));
  list("fit norm_s reps", norm_s(fit));
  list("score norm_s reps", norm_s(score));
  list("retune norm_s reps", norm_s(retune));
  list("stream pts/norm_s segments", rate(norm_s(stream)));
  list("reference cpu_s runs", measure.refs());
  std::printf("measured medians (ungated): setup %.4f + %.4f cpu_s, "
              "%.4f + %.4f wall s; fit %.4f cpu_s, %.4f wall s; score %.1f "
              "pts/cpu_s, %.1f pts/s; retune %.4f cpu_s, %.4f wall s; stream "
              "%.1f pts/cpu_s, %.1f pts/s, p50 %.3f ms; reference %.2fx its "
              "nominal %.3f s\n",
              median(cpu_s(setup)), median(cpu_s(deploy_cost)),
              median(wall_s(setup)), median(wall_s(deploy_cost)),
              median(cpu_s(fit)), median(wall_s(fit)),
              w.n_test / median(cpu_s(score)), w.n_test / median(wall_s(score)),
              median(cpu_s(retune)), median(wall_s(retune)),
              median(rate(cpu_s(stream))), median(rate(wall_s(stream))),
              median(stream_p50_ms), median(measure.refs()) / kReferenceNominalS,
              kReferenceNominalS);
}

}  // namespace khss::perfbench
