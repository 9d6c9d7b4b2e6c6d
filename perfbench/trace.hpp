#pragma once
// Spans recorded by the benchmark's traced run around its calls into each
// library layer.  A span has a name, start, end, parent span and thread.
// Spans stay in memory and are written once at the end, as JSON rows and as
// a Chrome Trace Event file that opens offline in Perfetto or
// chrome://tracing.  The library itself records nothing.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace khss::perfbench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace() : epoch_(Clock::now()) {}

  /// Open a span under `parent` (-1 for a root span); returns its id.
  int begin(const std::string& name, int parent);
  /// Close span `id`; returns its duration in seconds.
  double end(int id);
  /// Record a span measured by the caller.  Safe to call from inside
  /// parallel regions.
  void add(const std::string& name, int parent, Clock::time_point start,
           Clock::time_point stop);

  /// Total duration of the direct children of `parent`.
  double children_seconds(int parent) const;

  /// Write the spans as JSON rows (`rows_path`) and as Chrome trace events
  /// (`chrome_path`).  Returns false when either write fails.
  bool write(const std::string& rows_path,
             const std::string& chrome_path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = -1.0;  // < 0 while open
    int thread = 0;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  int thread_index();  // caller holds mu_

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                    // guarded by mu_
  std::map<std::thread::id, int> threads_;     // guarded by mu_
};

}  // namespace khss::perfbench
