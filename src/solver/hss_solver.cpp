#include "solver/hss_solver.hpp"

#include <stdexcept>

#include "la/iterative.hpp"
#include "serialize/artifacts.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::solver {

double HSSSolver::compression_rtol() const {
  return backend_ == SolverBackend::kIterativeHSSPrecond ? opts_.precond_rtol
                                                         : opts_.rtol;
}

bool HSSSolver::needs_hmat() const {
  return backend_ == SolverBackend::kHSSRandomH ||
         backend_ == SolverBackend::kIterativeHSSPrecond;
}

void HSSSolver::compress(const kernel::KernelMatrix& kernel,
                         const cluster::ClusterTree& tree) {
  bind(kernel, tree);
  hmat_.reset();
  ulv_.reset();
  hss_ = hss::HSSMatrix();

  hss::ExtractFn extract = [this](const std::vector<int>& rows,
                                  const std::vector<int>& cols) {
    return kernel_->extract(rows, cols);
  };

  hss::HSSOptions hopts;
  hopts.rtol = compression_rtol();
  hopts.init_samples = opts_.hss_init_samples;
  hopts.max_rank = opts_.max_rank;
  hopts.seed = opts_.seed;

  if (backend_ == SolverBackend::kHSSDirect) {
    hss_ = hss::build_hss_direct(*tree_, extract, hopts);
  } else {
    hss::SampleFn sampler;
    if (needs_hmat()) {
      util::Timer t;
      hmat::HOptions h_opts = opts_.hmatrix;
      if (h_opts.rtol <= 0.0) h_opts.rtol = opts_.rtol;
      hmat_ = std::make_unique<hmat::HMatrix>(*kernel_, *tree_, h_opts);
      stats_.h_construction_seconds = t.seconds();
      stats_.h_memory_bytes = hmat_->stats().memory_bytes;
      sampler = [this](const la::Matrix& r) { return hmat_->multiply(r); };
    } else {
      sampler = [this](const la::Matrix& r) { return kernel_->multiply(r); };
    }
    hss_ = hss::build_hss_randomized(*tree_, extract, sampler, {}, hopts);
    // Only PCG solves with the H operator; for kHSSRandomH it was a
    // sampling accelerator, so free it now (h_memory_bytes keeps its size).
    if (backend_ != SolverBackend::kIterativeHSSPrecond) hmat_.reset();
  }
  stats_.compress_seconds = hss_.construction_seconds_;
  stats_.sampling_seconds = hss_.sampling_seconds_;
  stats_.compressed_memory_bytes = hss_.memory_bytes();
  stats_.max_rank = hss_.max_rank();
  stats_.samples = hss_.samples_used_;
  stats_.restarts = hss_.restarts_;
}

void HSSSolver::factor() {
  KHSS_REQUIRE_STATE(!hss_.empty(), "HSSSolver::factor before compress");
  util::Timer t;
  ulv_ = std::make_unique<hss::ULVFactorization>(hss_);
  stats_.factor_seconds = t.seconds();
  stats_.factor_tree_seconds = ulv_->stats().factor_tree_seconds;
  stats_.factor_root_seconds = ulv_->stats().factor_root_seconds;
  stats_.factor_memory_bytes = ulv_->memory_bytes();
}

la::Vector HSSSolver::solve(const la::Vector& b) {
  KHSS_REQUIRE_STATE(ulv_ != nullptr, "HSSSolver::solve before factor");
  util::Timer t;
  la::Vector x = ulv_->solve(b);
  stats_.solve_seconds = t.seconds();
  stats_.solve_forward_seconds = ulv_->stats().solve_forward_seconds;
  stats_.solve_backward_seconds = ulv_->stats().solve_backward_seconds;
  return x;
}

la::Matrix HSSSolver::solve(const la::Matrix& b) {
  KHSS_REQUIRE_STATE(ulv_ != nullptr, "HSSSolver::solve before factor");
  util::Timer t;
  la::Matrix x = ulv_->solve(b);
  stats_.solve_seconds = t.seconds();
  stats_.solve_forward_seconds = ulv_->stats().solve_forward_seconds;
  stats_.solve_backward_seconds = ulv_->stats().solve_backward_seconds;
  return x;
}

void HSSSolver::set_lambda(double lambda) {
  const double delta = lambda - opts_.lambda;
  opts_.lambda = lambda;
  if (delta == 0.0) return;
  // The O(n) diagonal update of Section 5.3: no recompression needed.
  hss_.shift_diagonal(delta);
  if (hmat_) hmat_->set_lambda(lambda);  // keep the sampling operator in sync
  ulv_.reset();  // stale; the caller's factor() rebuilds
}

la::Vector HSSSolver::matvec(const la::Vector& x) const {
  return apply_columnwise(
      [this](const la::Matrix& m) { return hss_.matmat(m); }, x);
}

void HSSSolver::save_state(serialize::ByteWriter& w) const {
  KHSS_REQUIRE_STATE(ulv_ != nullptr, "HSSSolver::save_state before factor");
  write_state_tag(w);
  serialize::write_hss(w, hss_);
  serialize::write_ulv(w, *ulv_);
  // The H operator survives compression only for PCG, which iterates on
  // it; for kHSSRandomH compress() already released it.
  w.u8(hmat_ != nullptr ? 1 : 0);
  if (hmat_) serialize::write_hmatrix(w, *hmat_);
}

void HSSSolver::load_state(serialize::ByteReader& r,
                           const kernel::KernelMatrix& kernel,
                           const cluster::ClusterTree& tree) {
  check_state_tag(r);
  hss::HSSMatrix hss = serialize::read_hss(r);
  if (hss.n() != kernel.n()) {
    r.fail("HSS matrix is of order " + std::to_string(hss.n()) +
           " but the model's training set has n = " +
           std::to_string(kernel.n()));
  }
  hss_ = std::move(hss);
  std::unique_ptr<hss::ULVFactorization> ulv = serialize::read_ulv(r, hss_);
  const std::uint8_t has_hmat = r.u8();
  if (has_hmat > 1) {
    r.fail("invalid H-matrix presence flag " + std::to_string(has_hmat));
  }
  std::unique_ptr<hmat::HMatrix> hm;
  if (has_hmat == 1) {
    hm = std::make_unique<hmat::HMatrix>(serialize::read_hmatrix(r));
    if (hm->n() != kernel.n()) {
      r.fail("H operator is of order " + std::to_string(hm->n()) +
             " but the model's training set has n = " +
             std::to_string(kernel.n()));
    }
  } else if (backend_ == SolverBackend::kIterativeHSSPrecond) {
    r.fail("the PCG backend's state is missing its H operator");
  }
  r.expect_exhausted("the HSS backend state");
  bind(kernel, tree);
  ulv_ = std::move(ulv);
  hmat_ = std::move(hm);
  stats_.compressed_memory_bytes = hss_.memory_bytes();
  stats_.max_rank = hss_.max_rank();
  stats_.factor_memory_bytes = ulv_->memory_bytes();
  if (hmat_) stats_.h_memory_bytes = hmat_->stats().memory_bytes;
}

la::Vector IterativeHSSSolver::solve(const la::Vector& b) {
  KHSS_REQUIRE_STATE(ulv_ != nullptr,
                     "IterativeHSSSolver::solve before factor");
  util::Timer t;
  la::MatVecFn op = [this](const la::Vector& v) { return hmat_->multiply(v); };
  la::MatVecFn precond = [this](const la::Vector& v) {
    return ulv_->solve(v);
  };
  la::Vector x(b.size(), 0.0);
  la::IterativeOptions iopts;
  iopts.rtol = opts_.iterative_rtol;
  iopts.max_iterations = opts_.iterative_max_iterations;
  la::IterativeResult ir = la::pcg(op, precond, b, &x, iopts);
  stats_.solve_iterations = ir.iterations;
  stats_.solve_converged = ir.converged;
  stats_.solve_relative_residual = ir.relative_residual;
  stats_.solve_seconds = t.seconds();
  return x;
}

la::Vector IterativeHSSSolver::matvec(const la::Vector& x) const {
  return hmat_->multiply(x);
}

}  // namespace khss::solver
