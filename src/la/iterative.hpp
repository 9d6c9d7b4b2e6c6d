#pragma once
// Preconditioned iterative solver.
//
// The paper's conclusion sketches its future work: use the loose-tolerance
// HSS ULV factorization as a *preconditioner* for an iterative solve instead
// of as a direct solver.  This is the Krylov method that extension plugs
// into: CG for the SPD case (K + lambda I with a PSD kernel).  Operators
// and preconditioners are plain callbacks, so any of the library's formats
// (dense kernel, H matrix, HSS) can serve as either.

#include <functional>

#include "la/matrix.hpp"

namespace khss::la {

/// y = A * x.
using MatVecFn = std::function<Vector(const Vector&)>;

struct IterativeOptions {
  double rtol = 1e-8;   // stop when ||r|| <= rtol * ||b||
  int max_iterations = 500;
};

struct IterativeResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;
};

/// Preconditioned conjugate gradient for SPD A.  `precond` applies M^{-1}
/// (pass nullptr / empty for unpreconditioned CG).  x holds the initial
/// guess on entry (zero it for a cold start) and the solution on exit.
IterativeResult pcg(const MatVecFn& a, const MatVecFn& precond,
                    const Vector& b, Vector* x,
                    const IterativeOptions& opts = {});

}  // namespace khss::la
