#pragma once
// Minimal ordered JSON document builder for the perf-trajectory harness.
//
// The bench binaries emit structured results (`--json <path>`) so perf can
// be tracked across PRs (BENCH_*.json); this is a writer, not a parser —
// consumers are CI artifacts and offline diffing.  Keys keep insertion
// order so emitted files diff cleanly run-to-run.

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace khss::util {

class Json {
 public:
  /// Scalars; the default-constructed value is null.
  Json() = default;
  Json(bool v);                // NOLINT(runtime/explicit) — builder sugar
  Json(long v);                // NOLINT(runtime/explicit)
  Json(int v) : Json(static_cast<long>(v)) {}
  Json(double v);              // NOLINT(runtime/explicit)
  Json(const char* v);         // NOLINT(runtime/explicit)
  Json(std::string v);         // NOLINT(runtime/explicit)

  static Json object();
  static Json array();

  /// Object member (insertion-ordered; last set of a repeated key wins).
  Json& set(const std::string& key, Json value);

  /// Array append.
  Json& push(Json value);

  /// Serialize with 2-space indentation and a trailing newline at the top
  /// level; doubles render via max_digits10 so values round-trip.
  void dump(std::ostream& os) const;
  std::string str() const;

  /// Write to a file; returns false (and leaves no partial file contract)
  /// when the path cannot be opened.
  bool save(const std::string& path) const;

 private:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  void dump_indented(std::ostream& os, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace khss::util
