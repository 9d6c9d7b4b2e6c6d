// Regression harness for the dense compute core (DESIGN.md "Compute core").
//
//   ./bench_micro_la [--sizes 128,256,512] [--mt-sizes 512,1024]
//                    [--nrhs 64] [--reps 3] [--threads N]
//                    [--json BENCH_la.json]
//
// Measures the packed/blocked kernels against the retained naive baselines
// (la::gemm_naive and local copies of the pre-blocking Cholesky/TRSM loops)
// and reports GFLOP/s plus blocked-over-naive speedups.  The Householder
// rows time the fit's own shapes (a ULV node's QR + Q, its QL, the ID of an
// H sample) at 1, 2 and N threads.  With --json the
// same numbers go to a structured file — the cross-PR perf trajectory
// (BENCH_la.json); CI runs this on a small fixed size and uploads the file
// as an artifact.

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "la/blas.hpp"
#include "la/chol.hpp"
#include "la/gemm_kernel.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "la/rrqr.hpp"
#include "util/timer.hpp"

using namespace khss;

namespace {

la::Matrix random_matrix(int m, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix a(m, n);
  rng.fill_normal(a.data(), a.size());
  return a;
}

la::Matrix random_spd(int n, std::uint64_t seed) {
  la::Matrix g = random_matrix(n, n, seed);
  la::Matrix a = la::matmul(g, g, la::Trans::kNo, la::Trans::kYes);
  a.shift_diagonal(static_cast<double>(n));
  return a;
}

// Pre-blocking baselines, kept verbatim so the speedup column measures the
// cache-blocked core against what this repo shipped before it.
namespace naive {

bool cholesky_inplace(la::Matrix& a) {
  const int n = a.rows();
  for (int k = 0; k < n; ++k) {
    double d = a(k, k);
    for (int p = 0; p < k; ++p) d -= a(k, p) * a(k, p);
    if (d <= 0.0) return false;
    d = std::sqrt(d);
    a(k, k) = d;
    const double inv = 1.0 / d;
    for (int i = k + 1; i < n; ++i) {
      double s = a(i, k);
      const double* ai = a.row(i);
      const double* ak = a.row(k);
      for (int p = 0; p < k; ++p) s -= ai[p] * ak[p];
      a(i, k) = s * inv;
    }
  }
  return true;
}

void trsm_lower_left(const la::Matrix& l, la::Matrix& b) {
  const int n = l.rows(), nrhs = b.cols();
  for (int i = 0; i < n; ++i) {
    double* bi = b.row(i);
    for (int p = 0; p < i; ++p) {
      const double lip = l(i, p);
      const double* bp = b.row(p);
      for (int j = 0; j < nrhs; ++j) bi[j] -= lip * bp[j];
    }
    const double inv = 1.0 / l(i, i);
    for (int j = 0; j < nrhs; ++j) bi[j] *= inv;
  }
}

void lu_inplace(la::Matrix& a) {
  const int n = a.rows();
  for (int k = 0; k < n; ++k) {
    int piv = k;
    double best = std::fabs(a(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::fabs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
    }
    const double inv = 1.0 / a(k, k);
    for (int i = k + 1; i < n; ++i) a(i, k) *= inv;
    for (int i = k + 1; i < n; ++i) {
      const double lik = a(i, k);
      const double* ak = a.row(k);
      double* ai = a.row(i);
      for (int j = k + 1; j < n; ++j) ai[j] -= lik * ak[j];
    }
  }
}

}  // namespace naive

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

double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

// LAPACK's flop counts: dgeqrf of an m x n panel (n <= m) and dorgqr of an
// m x n Q from k reflectors.
double qr_flops(double m, double n) {
  return 2.0 * m * n * n - 2.0 * n * n * n / 3.0;
}
double q_flops(double m, double n, double k) {
  return 4.0 * m * n * k - 2.0 * (m + n) * k * k + 4.0 * k * k * k / 3.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  bench::warn_backend_ignored(args, "benchmarks the la/ kernels directly");
  bench::CommonArgs c = bench::parse_common(args, {.n = 0, .dataset = "-"});
  const std::vector<int> sizes =
      bench::parse_sizes(args.get_string("sizes", "128,256,512"), args.program());
  // This bench is sized by --sizes, not --n; keep the header's n honest.
  c.n = *std::max_element(sizes.begin(), sizes.end());
  const int nrhs = static_cast<int>(args.get_int("nrhs", 64));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 3)));

  bench::print_banner(
      "micro_la", "packed/blocked compute core vs naive baselines",
      "single-node " + std::to_string(util::max_threads()) + " threads, " +
          std::string(la::detail::gemm_kernel_name()) + " microkernel");

  const la::detail::GemmBlocking blk = la::detail::gemm_blocking();
  util::Json doc = bench::json_header("bench_micro_la", c);
  doc.set("nrhs", static_cast<long>(nrhs));
  doc.set("reps", static_cast<long>(reps));
  doc.set("microkernel", la::detail::gemm_kernel_name());
  doc.set("blocking", util::Json::object()
                          .set("kc", static_cast<long>(blk.kc))
                          .set("mc", static_cast<long>(blk.mc))
                          .set("nc", static_cast<long>(blk.nc)));
  util::Json jgemm = util::Json::array();
  util::Json jgemm_nt = util::Json::array();
  util::Json jchol = util::Json::array();
  util::Json jtrsm = util::Json::array();
  util::Json jlu = util::Json::array();
  util::Json jqr = util::Json::array();

  util::Table tg({"kernel", "n", "seconds", "GFLOP/s", "naive GF/s",
                  "speedup"});
  for (const int n : sizes) {
    const double mm_flops = 2.0 * n * n * n;
    la::Matrix a = random_matrix(n, n, 1);
    la::Matrix b = random_matrix(n, n, 2);
    la::Matrix cmat(n, n);

    // GEMM NN: packed core vs retained naive kernel.
    const double t_blk = best_seconds(reps, [&] {
      la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, cmat);
    });
    const double t_nai = best_seconds(reps, [&] {
      la::gemm_naive(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, cmat);
    });
    tg.add_row({"gemm_nn", std::to_string(n), util::Table::fmt(t_blk, 4),
                util::Table::fmt(gflops(mm_flops, t_blk), 2),
                util::Table::fmt(gflops(mm_flops, t_nai), 2),
                util::Table::fmt(t_nai / t_blk, 2)});
    jgemm.push(util::Json::object()
                   .set("n", static_cast<long>(n))
                   .set("seconds", t_blk)
                   .set("gflops", gflops(mm_flops, t_blk))
                   .set("naive_seconds", t_nai)
                   .set("naive_gflops", gflops(mm_flops, t_nai))
                   .set("speedup", t_nai / t_blk));

    // GEMM NT (the serving path's cross-kernel shape).
    const double t_blk_nt = best_seconds(reps, [&] {
      la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kYes, 0.0, cmat);
    });
    const double t_nai_nt = best_seconds(reps, [&] {
      la::gemm_naive(1.0, a, la::Trans::kNo, b, la::Trans::kYes, 0.0, cmat);
    });
    tg.add_row({"gemm_nt", std::to_string(n), util::Table::fmt(t_blk_nt, 4),
                util::Table::fmt(gflops(mm_flops, t_blk_nt), 2),
                util::Table::fmt(gflops(mm_flops, t_nai_nt), 2),
                util::Table::fmt(t_nai_nt / t_blk_nt, 2)});
    jgemm_nt.push(util::Json::object()
                      .set("n", static_cast<long>(n))
                      .set("seconds", t_blk_nt)
                      .set("gflops", gflops(mm_flops, t_blk_nt))
                      .set("naive_seconds", t_nai_nt)
                      .set("naive_gflops", gflops(mm_flops, t_nai_nt))
                      .set("speedup", t_nai_nt / t_blk_nt));

    // Blocked right-looking Cholesky vs the pre-blocking left-looking loop.
    const double chol_flops = static_cast<double>(n) * n * n / 3.0;
    la::Matrix spd = random_spd(n, 11);
    const double t_chol = best_seconds(reps, [&] {
      la::CholeskyFactor f(spd);
      (void)f;
    });
    const double t_chol_nai = best_seconds(reps, [&] {
      la::Matrix copy = spd;
      naive::cholesky_inplace(copy);
    });
    tg.add_row({"cholesky", std::to_string(n), util::Table::fmt(t_chol, 4),
                util::Table::fmt(gflops(chol_flops, t_chol), 2),
                util::Table::fmt(gflops(chol_flops, t_chol_nai), 2),
                util::Table::fmt(t_chol_nai / t_chol, 2)});
    jchol.push(util::Json::object()
                   .set("n", static_cast<long>(n))
                   .set("seconds", t_chol)
                   .set("gflops", gflops(chol_flops, t_chol))
                   .set("naive_seconds", t_chol_nai)
                   .set("naive_gflops", gflops(chol_flops, t_chol_nai))
                   .set("speedup", t_chol_nai / t_chol));

    // Blocked multi-RHS forward substitution vs the pre-blocking loop.
    const double trsm_flops = static_cast<double>(n) * n * nrhs;
    la::CholeskyFactor chol(spd);
    la::Matrix rhs = random_matrix(n, nrhs, 21);
    const double t_trsm = best_seconds(reps, [&] {
      la::Matrix x = rhs;
      la::trsm_lower_left(chol.l(), x, false);
    });
    const double t_trsm_nai = best_seconds(reps, [&] {
      la::Matrix x = rhs;
      naive::trsm_lower_left(chol.l(), x);
    });
    tg.add_row({"trsm_lower", std::to_string(n), util::Table::fmt(t_trsm, 4),
                util::Table::fmt(gflops(trsm_flops, t_trsm), 2),
                util::Table::fmt(gflops(trsm_flops, t_trsm_nai), 2),
                util::Table::fmt(t_trsm_nai / t_trsm, 2)});
    jtrsm.push(util::Json::object()
                   .set("n", static_cast<long>(n))
                   .set("nrhs", static_cast<long>(nrhs))
                   .set("seconds", t_trsm)
                   .set("gflops", gflops(trsm_flops, t_trsm))
                   .set("naive_seconds", t_trsm_nai)
                   .set("naive_gflops", gflops(trsm_flops, t_trsm_nai))
                   .set("speedup", t_trsm_nai / t_trsm));

    // Blocked right-looking LU vs the pre-blocking per-step rank-1 loop.
    const double lu_flops = 2.0 * n * n * n / 3.0;
    la::Matrix lum = random_matrix(n, n, 31);
    lum.shift_diagonal(static_cast<double>(n));
    const double t_lu = best_seconds(reps, [&] {
      la::LUFactor f(lum);
      (void)f;
    });
    const double t_lu_nai = best_seconds(reps, [&] {
      la::Matrix copy = lum;
      naive::lu_inplace(copy);
    });
    tg.add_row({"lu", std::to_string(n), util::Table::fmt(t_lu, 4),
                util::Table::fmt(gflops(lu_flops, t_lu), 2),
                util::Table::fmt(gflops(lu_flops, t_lu_nai), 2),
                util::Table::fmt(t_lu_nai / t_lu, 2)});
    jlu.push(util::Json::object()
                 .set("n", static_cast<long>(n))
                 .set("seconds", t_lu)
                 .set("gflops", gflops(lu_flops, t_lu))
                 .set("naive_seconds", t_lu_nai)
                 .set("naive_gflops", gflops(lu_flops, t_lu_nai))
                 .set("speedup", t_lu_nai / t_lu));

    // Householder QR on n x n/2 (row-major reflector steps, one thread).
    const int qn = std::max(1, n / 2);
    const double qr_n_flops = qr_flops(n, qn);
    la::Matrix qa = random_matrix(n, qn, 41);
    const double t_qr = best_seconds(reps, [&] {
      la::QRFactor f(qa);
      (void)f;
    });
    tg.add_row({"qr", std::to_string(n), util::Table::fmt(t_qr, 4),
                util::Table::fmt(gflops(qr_n_flops, t_qr), 2), "-", "-"});
    jqr.push(util::Json::object()
                 .set("n", static_cast<long>(n))
                 .set("cols", static_cast<long>(qn))
                 .set("seconds", t_qr)
                 .set("gflops", gflops(qr_n_flops, t_qr)));
  }
  tg.print(std::cout, "compute core vs naive (best of " +
                          std::to_string(reps) + ")");

  // Threaded packed core vs its own serial driver (same kernel, same
  // blocking, bit-identical output — this measures the MC/NR macro-tile
  // fan-out alone).  Rows at 1/2/max threads; numbers from a 1-core CI host
  // are honest ~1.0x and flagged by the "threads" column.
  const int entry_threads = util::max_threads();
  std::vector<int> thread_counts = {1, 2};
  if (entry_threads > 2) thread_counts.push_back(entry_threads);
  const std::vector<int> mt_sizes = bench::parse_sizes(
      args.get_string("mt-sizes", "512,1024"), args.program());
  util::Json jgemm_mt = util::Json::array();
  util::Table tmt({"kernel", "n", "threads", "seconds", "GFLOP/s",
                   "vs serial"});
  for (const int n : mt_sizes) {
    const double mm_flops = 2.0 * n * n * n;
    la::Matrix a = random_matrix(n, n, 5);
    la::Matrix b = random_matrix(n, n, 6);
    la::Matrix cmat(n, n);
    double t_serial = 0.0;
    for (const int t : thread_counts) {
      util::set_threads(t);
      const double tt = best_seconds(reps, [&] {
        la::gemm(1.0, a, la::Trans::kNo, b, la::Trans::kNo, 0.0, cmat);
      });
      if (t == 1) t_serial = tt;
      tmt.add_row({"gemm_nn", std::to_string(n), std::to_string(t),
                   util::Table::fmt(tt, 4),
                   util::Table::fmt(gflops(mm_flops, tt), 2),
                   util::Table::fmt(t_serial > 0.0 ? t_serial / tt : 1.0, 2)});
      jgemm_mt.push(util::Json::object()
                        .set("n", static_cast<long>(n))
                        .set("threads", static_cast<long>(t))
                        .set("seconds", tt)
                        .set("gflops", gflops(mm_flops, tt))
                        .set("speedup_vs_serial",
                             t_serial > 0.0 ? t_serial / tt : 1.0));
    }
  }
  util::set_threads(entry_threads);
  tmt.print(std::cout, "threaded packed core vs serial driver (best of " +
                           std::to_string(reps) + ")");

  // Householder kernels at the tune-mnist fit's shapes: QR + q_full of a
  // 128-row ULV block with 54 and 80 reflectors, the QL of a 430 x 215 U
  // basis (QR + Omega), and the row ID of a 430 x 256 H sample of rank 215.
  // The Householder kernels run on the calling thread; at more threads only
  // the transposes and the ID's triangular solve fan out.
  util::Json jhh = util::Json::array();
  util::Table thh({"kernel", "shape", "threads", "seconds", "GFLOP/s"});
  la::Matrix sample = la::matmul(random_matrix(430, 215, 51),
                                 random_matrix(215, 256, 52));
  {
    const la::Matrix noise = random_matrix(430, 256, 53);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sample.data()[i] += 1e-9 * noise.data()[i];
    }
  }
  const int id_rank =
      static_cast<int>(la::interpolative_rows(sample, {}).rows.size());
  struct HouseholderCase {
    std::string kernel;
    int m, n;
    double flops;
    std::function<void()> run;
  };
  const la::Matrix u54 = random_matrix(128, 54, 54);
  const la::Matrix u80 = random_matrix(128, 80, 55);
  const la::Matrix u215 = random_matrix(430, 215, 56);
  const std::vector<HouseholderCase> hcases = {
      {"qr+q_full", 128, 54, qr_flops(128, 54) + q_flops(128, 128, 54),
       [&] { (void)la::QRFactor(u54).q_full(); }},
      {"qr+q_full", 128, 80, qr_flops(128, 80) + q_flops(128, 128, 80),
       [&] { (void)la::QRFactor(u80).q_full(); }},
      {"ql_zero_top", 430, 215, qr_flops(430, 215) + q_flops(430, 430, 215),
       [&] { (void)la::ql_zero_top(u215); }},
      // Truncated pivoted QR of the 256 x 430 transpose to rank k, plus the
      // k x k triangular solve against the other 430 - k columns.
      {"interpolative_rows", 430, 256,
       q_flops(256, 430, id_rank) +
           static_cast<double>(id_rank) * id_rank * (430 - id_rank),
       [&] { (void)la::interpolative_rows(sample, {}); }}};
  for (const HouseholderCase& hc : hcases) {
    for (const int t : thread_counts) {
      util::set_threads(t);
      const double tt = best_seconds(reps, hc.run);
      const std::string shape =
          std::to_string(hc.m) + "x" + std::to_string(hc.n);
      thh.add_row({hc.kernel, shape, std::to_string(t),
                   util::Table::fmt(tt, 5),
                   util::Table::fmt(gflops(hc.flops, tt), 2)});
      jhh.push(util::Json::object()
                   .set("kernel", hc.kernel)
                   .set("m", static_cast<long>(hc.m))
                   .set("n", static_cast<long>(hc.n))
                   .set("threads", static_cast<long>(t))
                   .set("seconds", tt)
                   .set("gflops", gflops(hc.flops, tt)));
    }
  }
  util::set_threads(entry_threads);
  thh.print(std::cout, "Householder kernels at the fit's shapes (best of " +
                           std::to_string(reps) + ", ID rank " +
                           std::to_string(id_rank) + ")");

  doc.set("gemm_nn", std::move(jgemm));
  doc.set("gemm_nt", std::move(jgemm_nt));
  doc.set("cholesky", std::move(jchol));
  doc.set("trsm_lower", std::move(jtrsm));
  doc.set("gemm_threads", std::move(jgemm_mt));
  doc.set("lu", std::move(jlu));
  doc.set("qr", std::move(jqr));
  doc.set("householder", std::move(jhh));
  const bool json_ok = bench::write_json_if_requested(c, doc);

  std::cout << "shape to check: gemm_nn speedup >= 3x at n >= 512 (the\n"
               "acceptance bar for the packed core); cholesky and trsm ride\n"
               "the same microkernel through their blocked updates.\n";
  return json_ok ? 0 : 1;
}
