#pragma once
// Whole-model persistence: a fitted krr::KRRModel (any backend) plus its
// trained weights round-trip through one container file (container.hpp) with
// bit-identical decision scores on the way back.
//
// Sections:
//   "meta"    — model schema version, backend + ordering names, the full
//               KRROptions (kernel params, tolerances, seeds) and the
//               n/dim/output counts every other section is checked against.
//   "tree"    — the cluster tree (permutation + node ranges + geometry).
//   "points"  — the training points, ALREADY in permuted (tree) order.
//   "weights" — the n x c trained weight matrix in ORIGINAL point order
//               (one column per class/RHS), exactly what solve() returned.
//   "solver"  — the backend's compressed + factored state, opened by the
//               backend's own name tag (KernelSolver::save_state), so a
//               wrong-backend artifact fails loudly.
//
// Loading re-validates everything: container envelope + CRCs, per-section
// schemas, cross-section consistency (n/dim/column counts, tree structure),
// and the backend tag.  On any failure a serialize::SerializeError (or a
// contract violation from a restore constructor) escapes BEFORE a LoadedModel
// exists — there is no half-loaded state to misuse.

#include <cstdint>
#include <string>

#include "krr/krr.hpp"
#include "la/matrix.hpp"
#include "predict/batch_predictor.hpp"

namespace khss::serialize {

/// Version of the section schemas ABOVE the container envelope.  Bump when a
/// section's byte layout changes; the loader refuses any other version.
/// History: v1 = flat kernel params (gaussian/laplacian/polynomial only);
/// v2 = recursive kernel spec (weight + composite children per node) for the
/// kernel zoo — a v1 reader cannot even skip the kernel bytes safely, so
/// both directions refuse by name instead of guessing; v3 = symmetric HSS
/// nodes (D, U, B01, Jrow — v2 also stored V, B10 and Jcol).
inline constexpr std::uint32_t kModelSchemaVersion = 3;

/// Save a fitted model plus its trained weights (n x c, original point
/// order, one column per class/RHS).  Throws SerializeError on any write
/// failure (the file is never silently incomplete) and std::logic_error when
/// the model is not fitted.
void save_model(const std::string& path, const krr::KRRModel& model,
                const la::Matrix& weights);

/// Convenience: a fitted one-vs-all classifier persists its shared model and
/// per-class weight columns.
void save_model(const std::string& path, const krr::OneVsAllKRR& ova);

/// A model loaded from disk: the fitted KRRModel (solve/set_lambda work
/// without refit), the weights, and a serving predictor frozen from the two
/// — scores are bit-identical to the model that was saved.
struct LoadedModel {
  krr::KRRModel model;
  la::Matrix weights;                 // n x c, original point order
  predict::BatchPredictor predictor;  // frozen from model + weights
};

/// Load and fully validate a model container.  Throws SerializeError with
/// the path and offending section on any corruption, truncation, version or
/// backend mismatch.
LoadedModel load_model(const std::string& path);

}  // namespace khss::serialize
