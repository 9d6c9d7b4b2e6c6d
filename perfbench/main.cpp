// khss_perfbench: the binary behind the repository benchmark (run.py builds
// and invokes it, and documents its use).
//
//   khss_perfbench gen --workload W --seed N --inputs DIR [--toy]
//   khss_perfbench run --workload W --seed N --inputs DIR --work DIR
//                      --seconds S --trace 0|1 --result FILE
//                      [--commit ID] [--toy]
//                      [--accuracy-floor X] [--corrupt-expected]
//
// `gen` writes the dataset twin's CSV files under --inputs unless they
// exist (the training set does not depend on the seed), so generation stays
// outside every timing.  `run` pins kThreads OpenMP
// threads, runs the untraced user cycle (--trace 0, end-to-end metrics) or
// the traced layer-by-layer run (--trace 1, per-layer metrics), prints each
// metric with its unit and the operation counts, and writes the result file.
// --toy shrinks the workload; --accuracy-floor and --corrupt-expected are
// the self-test's deliberate faults.  Exits 1 when any check fails.

#include <iostream>
#include <string>

#include "common.hpp"
#include "la/gemm_kernel.hpp"
#include "la/gemm_tune.hpp"
#include "util/argparse.hpp"
#include "util/threads.hpp"

using namespace khss;
using namespace khss::perfbench;

namespace {

util::Json environment(const RunConfig& cfg, const std::string& commit,
                       bool trace) {
  const la::detail::GemmConfig gemm = la::detail::resolve_gemm_config();
  const la::detail::GemmBlocking blk = la::detail::gemm_blocking();
  util::Json env = util::Json::object();
  env.set("workload", cfg.workload.name);
  env.set("dataset", cfg.workload.dataset);
  env.set("n_train", static_cast<long>(cfg.workload.n_train));
  env.set("n_test", static_cast<long>(cfg.workload.n_test));
  env.set("seed", static_cast<long>(cfg.seed));
  env.set("seconds", cfg.seconds);
  env.set("trace", trace);
  env.set("nproc", static_cast<long>(util::hardware_threads()));
  env.set("threads", static_cast<long>(util::max_threads()));
  env.set("gemm_kernel", la::detail::gemm_kernel_name());
  env.set("gemm_blocking", "kc=" + std::to_string(blk.kc) +
                               " mc=" + std::to_string(blk.mc) +
                               " nc=" + std::to_string(blk.nc));
  env.set("gemm_config_source", gemm.source);
  env.set("commit", commit);
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    const std::string cmd =
        args.positional().empty() ? "" : args.positional().front();
    const Workload w = find_workload(args.get_string("workload", ""),
                                     args.get_bool("toy", false));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (cmd == "gen") {
      generate_inputs(w, seed, args.get_string("inputs", "."));
      return 0;
    }
    if (cmd != "run") {
      std::cerr << "usage: khss_perfbench gen|run --workload W ...\n";
      return 2;
    }

    RunConfig cfg;
    cfg.workload = w;
    cfg.workload.accuracy_floor =
        args.get_double("accuracy-floor", w.accuracy_floor);
    cfg.info = data::paper_dataset_info(w.dataset);
    cfg.seed = seed;
    const InputFiles files =
        input_files(w, seed, args.get_string("inputs", "."));
    cfg.train_csv = files.train;
    cfg.test_csv = files.test;
    cfg.work = args.get_string("work", ".");
    cfg.seconds = args.get_double("seconds", 10.0);
    cfg.corrupt_expected = args.get_bool("corrupt-expected", false);
    const bool trace = args.get_int("trace", 0) != 0;

    util::set_threads(kThreads);
    const util::Json env =
        environment(cfg, args.get_string("commit", "unknown"), trace);

    Result result;
    if (trace) {
      run_layers(cfg, result);
    } else {
      run_cycle(cfg, result);
    }
    if (!result.write(args.get_string("result", "result.json"), env)) {
      std::cerr << "khss_perfbench: cannot write the result file\n";
      return 1;
    }
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "khss_perfbench: " << e.what() << '\n';
    return 1;
  }
}
