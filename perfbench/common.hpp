#pragma once
// Shared pieces of the khss benchmark (run.py documents its use): the
// workload table, the paper's operating point, input generation and loading,
// the in-process serving deployment with its closed-loop request stream, and
// the result record each run writes.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "krr/krr.hpp"
#include "la/matrix.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace khss::perfbench {

/// Every run pins this OpenMP team size.  The gated timings are CPU seconds
/// of single-thread work (Calibrated below): at one thread they equal the
/// wall time on an otherwise idle core, while a team's threads would add
/// whatever they spin at barriers.  One thread also makes the work repeat
/// exactly, kernel-evaluation counts included.
inline constexpr int kThreads = 1;
/// The traced run repeats the fit layers and scoring at this team size for
/// its speed-up rows.
inline constexpr int kScalingThreads = 2;
/// Closed-loop daemon connections: one in the gated stream, so every
/// request is its own batch and its cost does not hinge on how the batcher
/// happens to group requests; several in the traced run, to show
/// coalescing.
inline constexpr int kClients = 1;
inline constexpr int kCoalescingClients = 4;
inline constexpr const char* kModelName = "model";
inline constexpr double kMiB = 1024.0 * 1024.0;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds the process has used so far, summed over its threads.  It
/// leaves out the time a thread waits for a CPU: other processes' turns
/// and, in a guest with steal-time accounting, the host's.
double cpu_seconds();

/// The benchmark's own reference work, about 25 ms on an idle core: a
/// fixed single-thread Gaussian kernel block (squared distances, exp,
/// multiply-add) in cache, then multiply-add passes over 32 MiB.  It
/// calls nothing in the library, so no library change moves it.  Returns a
/// checksum so the compiler keeps the work.
double reference_work();

/// Pin the calling thread, and every thread it creates afterwards, to the
/// CPU it is running on.
void pin_to_current_cpu();

/// CPU seconds of reference_work() on an idle core of the machine the
/// benchmark was tuned on (4-vCPU Xeon with AVX-512).
inline constexpr double kReferenceNominalS = 0.024;

/// One workload: a paper dataset twin at a size, and how the run spends its
/// --seconds window on the user operations it repeats.
struct Workload {
  std::string name;
  std::string dataset;  // data::paper_datasets() name
  int n_train = 0;
  int n_test = 0;
  /// Output check, set well below the measured accuracy so a valid but
  /// numerically different fit still passes.
  double accuracy_floor = 0.0;
  int setup_reps = 3;
  /// Rounds of fit, score, lambda sweep and stream segment (cycle.cpp): at
  /// least min_rounds, and more while they fit in rounds_share of --seconds.
  int min_rounds = 3;
  double rounds_share = 0.0;
  double segment_share = 0.0;  // of --seconds, per stream segment
  /// Rows per daemon score request.  serve-pen sends the small-batch shape;
  /// tune-mnist sends one 64-row predictor panel per team thread.
  int rows_per_request = 4;
};

/// Throws std::invalid_argument for an unknown name.  `toy` shrinks the
/// sizes for the self-test.
Workload find_workload(const std::string& name, bool toy);

/// The paper's operating point: Table 2 h/lambda, hss-rand-h, sieved 2MN
/// ordering, leaf 128, rtol 0.1.
krr::KRROptions paper_options(const data::PaperDatasetInfo& info);

/// The CSV inputs of a workload under `dir`.  The file names carry every
/// generator parameter, so a changed workload never reads stale inputs.
struct InputFiles {
  std::string train;  // the same for every seed
  std::string test;
};

InputFiles input_files(const Workload& w, std::uint64_t seed,
                       const std::string& dir);

/// Write the workload's inputs under `dir` unless they exist: the fixed
/// training set and the seed's test set.  Other seeds' test sets are
/// removed.
void generate_inputs(const Workload& w, std::uint64_t seed,
                     const std::string& dir);

/// The training and test sets, z-scored with the training transform, with
/// +-1 labels against the dataset's target class.
struct Inputs {
  la::Matrix train;
  la::Matrix test;
  std::vector<int> y_train;
  std::vector<int> y_test;
  double csv_mb = 0.0;  // bytes read
};

Inputs load_inputs(const std::string& train_path,
                   const std::string& test_path, int target_class);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

bool all_finite(const la::Vector& v);
/// Share of scores whose sign matches the +-1 label (KRRClassifier::predict
/// maps a score >= 0 to +1).
double accuracy_of(const la::Vector& scores, const std::vector<int>& y);
bool same_bits(const double* a, const double* b, std::size_t count);

/// Wall seconds of one call of `f`.
template <typename F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// What one operation cost.
struct Cost {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  /// Mean CPU seconds of the two reference runs that bracket the operation.
  double ref_s = kReferenceNominalS;
  /// CPU seconds at the reference speed: cpu_s scaled by how much slower
  /// than nominal the reference ran around the operation.
  double norm_s() const { return cpu_s * kReferenceNominalS / ref_s; }
};

template <typename F>
Cost cost_of(F&& f) {
  const double c0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  f();
  return {cpu_seconds() - c0, seconds_since(t0)};
}

/// Measures operations against reference_work(), run before the first
/// operation and after every one, so that each operation sits between two
/// reference runs.  On a shared host the CPU time of the same
/// single-thread work swings by up to 2x within minutes as other guests
/// load the cores (no wait for a CPU is involved, so CPU time moves as much
/// as wall time); the reference run beside it swings with it, and their
/// ratio holds.
class Calibrated {
 public:
  Calibrated();

  template <typename F>
  Cost operator()(F&& f) {
    const double before = last_ref_s_;
    Cost c = cost_of(f);
    last_ref_s_ = reference_s();
    c.ref_s = 0.5 * (before + last_ref_s_);
    refs_.push_back(last_ref_s_);
    return c;
  }

  /// Every reference time so far, in CPU seconds.
  const std::vector<double>& refs() const { return refs_; }

 private:
  static double reference_s();

  double last_ref_s_ = 0.0;
  std::vector<double> refs_;
};

/// Weights of a fitted classifier, original point order, as an n x 1 matrix
/// (the classifier keeps its own copy private; the solve is deterministic,
/// so this re-solve reproduces it bit for bit).
la::Matrix classifier_weights(krr::KRRClassifier& clf,
                              const std::vector<int>& y);

/// Load the saved model into a fresh in-process daemon on `socket` and wait
/// for the first ping.
std::unique_ptr<serve::ModelServer> deploy(const std::string& model_path,
                                           const std::string& socket);

struct StreamStats {
  long requests = 0;
  long rows = 0;
  long failed = 0;  // errors and replies whose bits differ from `expected`
  std::vector<double> latency_ms;
  double wall_s = 0.0;
};

/// `clients` closed-loop connections each send `rows`-row score requests
/// (consecutive test rows) until `seconds` have passed, and compare every
/// reply bit for bit with the matching entries of `expected`, the fitted
/// model's in-process scores of the test rows.
StreamStats run_stream(const std::string& socket, const la::Matrix& test,
                       const la::Vector& expected, int rows, int clients,
                       double seconds);

/// Operation counts, checks and metrics of one run.
class Result {
 public:
  /// Count one attempted operation; a false `ok` counts it failed.
  void op(bool ok, const std::string& what);
  /// Count `attempted` operations of which `failed` failed.
  void ops(long attempted, long failed, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  /// Print the metric table and counts, and write the JSON result file.
  bool write(const std::string& path, const util::Json& env) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Everything one run needs besides its Result.
struct RunConfig {
  Workload workload;
  data::PaperDatasetInfo info;
  std::uint64_t seed = 0;
  std::string train_csv;
  std::string test_csv;
  std::string work;    // working directory: model file, sockets, traces
  double seconds = 0.0;
  /// Self-test fault: flip one bit of the expected serving scores.
  bool corrupt_expected = false;
};

/// The untraced user cycle (cycle.cpp): every end-to-end metric.
void run_cycle(const RunConfig& cfg, Result& r);

/// The traced layer-by-layer run (layers.cpp): every per-layer metric.
void run_layers(const RunConfig& cfg, Result& r);

}  // namespace khss::perfbench
