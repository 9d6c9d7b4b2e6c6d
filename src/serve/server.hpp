#pragma once
// In-process scoring server behind the khss_serve daemon.
//
// A ModelServer owns N loaded models (serialize::LoadedModel) and a local
// AF_UNIX stream socket.  Each client connection gets a reader thread;
// score requests are NOT answered in place — they become jobs on a shared
// queue that a single batcher thread drains, coalescing concurrent requests
// for the same model into one dynamic batch per BatchPredictor call.
//
// Coalescing is *provably* safe because the predictor's scores are
// bit-identical for any batch split (the contract pinned by
// tests/test_determinism.cpp and tests/test_serialize_roundtrip.cpp): a
// request scored alone and the same request scored glued to a stranger's
// batch produce the same bytes, so the server can batch opportunistically
// without changing any answer.
//
// Threading model:
//   accept thread   -> spawns one connection thread per client
//   connection thread -> parses frames; ping/stats/list answered inline;
//                        score enqueued, thread blocks on the job's future,
//                        then writes the response (single writer per fd)
//   batcher thread  -> pops jobs, groups same-model runs up to
//                      max_batch_points rows, one predict_batch per group
//
// Shutdown: a client kShutdown (or stop()) raises the shutdown flag.  The
// daemon's main thread waits on wait_for_shutdown() and then calls stop(),
// which closes the listen socket, shuts client sockets down for reading
// (in-flight responses still go out), joins connection threads, drains the
// job queue, and finally joins the batcher.  Queued work is always answered
// before the server dies.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "serialize/model_io.hpp"

namespace khss::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.  An existing stale
  /// socket file at this path is replaced.
  std::string socket_path;
  /// Coalescing cap: the batcher glues queued same-model requests together
  /// until the combined batch reaches this many rows.  Purely a latency /
  /// memory knob — scores are bit-identical for any value.
  int max_batch_points = 4096;
  /// listen(2) backlog for the accept socket.
  int listen_backlog = 64;
};

/// Serving counters for one model (see ModelServer::stats()).
struct ServeModelStats {
  std::uint64_t requests = 0;   // score requests answered
  std::uint64_t points = 0;     // total rows scored
  std::uint64_t batches = 0;    // predict_batch calls (after coalescing)
  double busy_seconds = 0.0;    // wall time inside predict_batch
};

class ModelServer {
 public:
  explicit ModelServer(ServerOptions opts);
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Register a model under `name` (the key score requests address).
  /// Must be called before start(); throws on duplicate names.
  void add_model(std::string name, serialize::LoadedModel model);

  /// Bind the socket and spin up the accept + batcher threads.  Throws
  /// std::runtime_error when the socket cannot be created/bound and
  /// std::logic_error when no models are loaded or already started.
  void start();

  /// Graceful teardown: stop accepting, let in-flight requests finish,
  /// answer everything queued, join all threads, unlink the socket.
  /// Idempotent; called by the destructor.  Must NOT be called from a
  /// connection thread — daemons should wait_for_shutdown() then stop().
  void stop();

  bool running() const;
  const std::string& socket_path() const { return opts_.socket_path; }

  /// True once a client sent kShutdown (or stop() began).
  bool shutdown_requested() const;

  /// Block until shutdown_requested() becomes true, polling `poll_ms` so a
  /// caller can interleave its own signal checks; 0 waits indefinitely.
  /// Returns shutdown_requested().
  bool wait_for_shutdown(int poll_ms = 0);

  /// Snapshot of the per-model serving counters, sorted by model name.
  std::vector<std::pair<std::string, ServeModelStats>> stats() const;

 private:
  struct Model;
  struct ScoreJob;
  struct Impl;

  void accept_loop();
  void connection_loop(int fd);
  void batcher_loop();
  std::string handle_frame(const std::string& frame);

  ServerOptions opts_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace khss::serve
