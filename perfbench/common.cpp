#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sched.h>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "data/io.hpp"
#include "serialize/model_io.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace khss::perfbench {

namespace {

constexpr std::uint64_t kDatasetSeed = 42;  // data::make_paper_dataset default

}  // namespace

Workload find_workload(const std::string& name, bool toy) {
  // Sizes put each workload's weight on different layers (BENCHMARK.json
  // gives the one-line reason per workload).  Floors sit well below the
  // accuracy each twin reaches and above its majority-class rate.
  Workload w;
  w.name = name;
  if (name == "tune-mnist") {
    w.dataset = "MNIST";
    w.n_train = 4096;
    w.n_test = 2048;
    w.accuracy_floor = 0.97;
    w.setup_reps = 3;
    w.min_rounds = 3;
    w.rounds_share = 0.8;
    w.segment_share = 0.03;
    w.rows_per_request = kThreads * predict::PredictOptions{}.panel_rows;
  } else if (name == "serve-pen") {
    w.dataset = "PEN";
    w.n_train = 8192;
    w.n_test = 4096;
    w.accuracy_floor = 0.95;
    w.setup_reps = 3;
    w.min_rounds = 5;
    w.rounds_share = 0.9;
    w.segment_share = 0.05;
    w.rows_per_request = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (tune-mnist, serve-pen)");
  }
  if (toy) {
    w.n_train = 1536;
    w.n_test = 512;
    w.accuracy_floor = 0.92;
    w.setup_reps = 2;
    w.min_rounds = 1;
  }
  return w;
}

krr::KRROptions paper_options(const data::PaperDatasetInfo& info) {
  krr::KRROptions o;
  o.ordering = cluster::OrderingMethod::kTwoMeans;
  o.backend = krr::SolverBackend::kHSSRandomH;
  o.kernel.h = info.h;
  o.lambda = info.lambda;
  o.leaf_size = 128;
  o.sieve = 8192;
  o.hss_rtol = 0.1;
  return o;
}

InputFiles input_files(const Workload& w, std::uint64_t seed,
                       const std::string& dir) {
  const std::string pool = "-of-" +
                           std::to_string(w.n_train + 2 * w.n_test) + "-s" +
                           std::to_string(kDatasetSeed);
  return {dir + "/" + w.dataset + "-train-" + std::to_string(w.n_train) +
              pool + ".csv",
          dir + "/" + w.dataset + "-test-" + std::to_string(w.n_test) + pool +
              "-seed" + std::to_string(seed) + ".csv"};
}

void generate_inputs(const Workload& w, std::uint64_t seed,
                     const std::string& dir) {
  namespace fs = std::filesystem;
  const InputFiles files = input_files(w, seed, dir);
  if (fs::exists(files.train) && fs::exists(files.test)) return;
  fs::create_directories(dir);
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find("-test-") != std::string::npos) {
      fs::remove(e.path());
    }
  }

  // One fixed pool per workload: the twin generator's seed draws the blob
  // centres too, i.e. the distribution itself.  The training set is a fixed
  // draw from it; the run seed draws the test set from the held-out rest.
  const int held_out = 2 * w.n_test;
  const data::Dataset pool = data::make_paper_dataset(
      w.dataset, w.n_train + held_out, kDatasetSeed);
  // The generator emits blobs in class order: always draw, never slice.
  util::Rng fixed(kDatasetSeed);
  const std::vector<int> perm = fixed.permutation(pool.n());
  // Write-then-rename: an interrupted run never leaves a truncated input.
  const auto save = [](const data::Dataset& d, const std::string& path) {
    data::save_csv(d, path + ".tmp");
    fs::rename(path + ".tmp", path);
  };
  if (!fs::exists(files.train)) {
    save(data::subset(pool, {perm.begin(), perm.begin() + w.n_train}),
         files.train);
  }
  util::Rng rng(seed);
  std::vector<int> test;
  for (const std::size_t i :
       rng.sample_without_replacement(held_out, w.n_test)) {
    test.push_back(perm[w.n_train + static_cast<int>(i)]);
  }
  save(data::subset(pool, test), files.test);
}

Inputs load_inputs(const std::string& train_path,
                   const std::string& test_path, int target_class) {
  data::Dataset train = data::load_csv(train_path);
  data::Dataset test = data::load_csv(test_path);
  const data::ColumnTransform z = data::fit_zscore(train.points);
  z.apply(train.points);
  z.apply(test.points);
  Inputs in;
  in.y_train = train.one_vs_all(target_class);
  in.y_test = test.one_vs_all(target_class);
  in.train = std::move(train.points);
  in.test = std::move(test.points);
  in.csv_mb = static_cast<double>(std::filesystem::file_size(train_path) +
                                  std::filesystem::file_size(test_path)) /
              kMiB;
  return in;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double reference_work() {
  // A kernel block of 1024 points in 16 dimensions (128 KiB), which stays in
  // the core's own caches, then four multiply-add passes over 32 MiB, which
  // do not.
  constexpr int n = 1024, d = 16;
  constexpr std::size_t stream = std::size_t{1} << 21;
  static const std::vector<double> x = [] {
    std::vector<double> v(static_cast<std::size_t>(n) * d);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(0.37 * static_cast<double>(i));
    }
    return v;
  }();
  static std::vector<double> a(stream, 1.0), b(stream, 0.5);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double* xi = &x[static_cast<std::size_t>(i) * d];
    for (int j = 0; j < n; ++j) {
      const double* xj = &x[static_cast<std::size_t>(j) * d];
      double dist2 = 0.0;
      for (int k = 0; k < d; ++k) dist2 += (xi[k] - xj[k]) * (xi[k] - xj[k]);
      sum += std::exp(-0.5 * dist2) * xj[0];
    }
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < stream; ++i) a[i] = 0.5 * a[i] + b[i];
  }
  return sum + a[stream / 2];
}

void pin_to_current_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(sched_getcpu(), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

Calibrated::Calibrated() {
  (void)reference_s();  // first touch of the reference's buffers
  last_ref_s_ = reference_s();
  refs_.push_back(last_ref_s_);
}

double Calibrated::reference_s() {
  // Two back-to-back runs: one run samples too short a stretch of the
  // host's load to stand for the operation beside it.
  static volatile double sink = 0.0;
  return 0.5 * cost_of([] {
           sink = sink + reference_work();
           sink = sink + reference_work();
         }).cpu_s;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool all_finite(const la::Vector& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

double accuracy_of(const la::Vector& scores, const std::vector<int>& y) {
  long right = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    right += (scores[i] >= 0.0 ? 1 : -1) == y[i];
  }
  return scores.empty() ? 0.0 : static_cast<double>(right) / scores.size();
}

bool same_bits(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

la::Matrix classifier_weights(krr::KRRClassifier& clf,
                              const std::vector<int>& y) {
  const la::Vector yd(y.begin(), y.end());
  const la::Vector w = clf.model().solve(yd);
  la::Matrix out(static_cast<int>(w.size()), 1);
  std::copy(w.begin(), w.end(), out.data());
  return out;
}

std::unique_ptr<serve::ModelServer> deploy(const std::string& model_path,
                                           const std::string& socket) {
  serialize::LoadedModel loaded = serialize::load_model(model_path);
  serve::ServerOptions so;
  so.socket_path = socket;
  auto server = std::make_unique<serve::ModelServer>(so);
  server->add_model(kModelName, std::move(loaded));
  server->start();
  serve::ServeClient client(socket);
  client.ping();
  return server;
}

StreamStats run_stream(const std::string& socket, const la::Matrix& test,
                       const la::Vector& expected, int rows, int clients,
                       double seconds) {
  const int span = test.rows() - rows + 1;
  if (span < 1) throw std::invalid_argument("run_stream: test set too small");
  std::vector<StreamStats> per(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      StreamStats& s = per[c];
      try {
        serve::ServeClient client(socket);
        for (long k = 0; Clock::now() < deadline; ++k) {
          const int r0 =
              static_cast<int>(((k * clients + c) * rows) % span);
          const la::Matrix request = test.block(r0, 0, rows, test.cols());
          const Clock::time_point t0 = Clock::now();
          la::Matrix reply;
          bool ok = true;
          try {
            reply = client.score(kModelName, request);
          } catch (const std::exception& e) {
            std::cerr << "request failed: " << e.what() << '\n';
            ok = false;
          }
          s.latency_ms.push_back(1e3 * seconds_since(t0));
          ++s.requests;
          s.rows += rows;
          ok = ok && reply.rows() == rows && reply.cols() == 1 &&
               same_bits(reply.data(), expected.data() + r0, rows);
          if (!ok) ++s.failed;
          if (!ok && reply.rows() == 0) break;  // the exchange broke
        }
      } catch (const std::exception& e) {
        std::cerr << "client " << c << " failed: " << e.what() << '\n';
        ++s.requests;
        ++s.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  StreamStats out;
  out.wall_s = seconds_since(start);
  for (const StreamStats& s : per) {
    out.requests += s.requests;
    out.rows += s.rows;
    out.failed += s.failed;
    out.latency_ms.insert(out.latency_ms.end(), s.latency_ms.begin(),
                          s.latency_ms.end());
  }
  return out;
}

void Result::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
  std::cerr << "FAILED: " << what << '\n';
}

void Result::ops(long attempted, long failed, const std::string& what) {
  attempted_ += attempted;
  if (failed == 0) return;
  failed_ += failed;
  failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                      std::to_string(attempted) + ")");
  std::cerr << "FAILED: " << failures_.back() << '\n';
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Result::write(const std::string& path, const util::Json& env) const {
  util::Json metrics = util::Json::object();
  for (const Metric& m : metrics_) {
    std::printf("  %-24s %18.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    util::Json entry = util::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  std::printf("operations: %ld attempted, %ld succeeded, %ld failed\n",
              attempted_, attempted_ - failed_, failed_);
  std::fflush(stdout);

  util::Json failures = util::Json::array();
  for (const std::string& f : failures_) failures.push(f);
  util::Json doc = util::Json::object();
  doc.set("correct", correct());
  doc.set("attempted", attempted_);
  doc.set("failed", failed_);
  doc.set("metrics", std::move(metrics));
  doc.set("failures", std::move(failures));
  doc.set("env", env);
  return doc.save(path);
}

}  // namespace khss::perfbench
