#include "la/iterative.hpp"

#include <algorithm>

#include "util/contracts.hpp"

#include "la/blas.hpp"

namespace khss::la {

IterativeResult pcg(const MatVecFn& a, const MatVecFn& precond,
                    const Vector& b, Vector* x, const IterativeOptions& opts) {
  KHSS_REQUIRE(x != nullptr, "la::pcg: x is null");
  KHSS_REQUIRE(x->size() == b.size(), "la::pcg: x has " << x->size()
                                          << " entries, b has "
                                          << b.size());
  const double bnorm = nrm2(b);
  IterativeResult res;
  if (bnorm == 0.0) {
    std::fill(x->begin(), x->end(), 0.0);
    res.converged = true;
    return res;
  }

  Vector r = b;
  {
    Vector ax = a(*x);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] -= ax[i];
  }
  Vector z = precond ? precond(r) : r;
  Vector p = z;
  double rz = dot(r, z);

  for (int it = 0; it < opts.max_iterations; ++it) {
    res.relative_residual = nrm2(r) / bnorm;
    if (res.relative_residual <= opts.rtol) {
      res.converged = true;
      res.iterations = it;
      return res;
    }

    Vector ap = a(p);
    const double pap = dot(p, ap);
    if (pap <= 0.0) break;  // matrix (or preconditioner) not SPD: bail out
    const double alpha = rz / pap;
    axpy(alpha, p, *x);
    axpy(-alpha, ap, r);

    z = precond ? precond(r) : r;
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = z[i] + beta * p[i];
    res.iterations = it + 1;
  }
  res.relative_residual = nrm2(r) / bnorm;
  res.converged = res.relative_residual <= opts.rtol;
  return res;
}

}  // namespace khss::la
