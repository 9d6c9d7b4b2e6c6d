#include "serve/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "kernel/kernel_spec.hpp"
#include "serve/protocol.hpp"
#include "solver/solver.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace khss::serve {

struct ModelServer::Model {
  std::string name;
  serialize::LoadedModel loaded;
  ServeModelStats stats;  // guarded by Impl::stats_mutex

  Model(std::string name_in, serialize::LoadedModel loaded_in)
      : name(std::move(name_in)), loaded(std::move(loaded_in)) {}
};

struct ModelServer::ScoreJob {
  Model* model = nullptr;
  la::Matrix points;
  bool want_variance = false;
  // scores always; variance filled only when want_variance.
  std::promise<std::pair<la::Matrix, la::Vector>> promise;
};

struct ModelServer::Impl {
  // Models are registered before start() and never mutated afterwards
  // (except their stats, under stats_mutex), so lookups are lock-free.
  std::map<std::string, std::unique_ptr<Model>> models;

  int listen_fd = -1;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};

  std::thread accept_thread;
  std::thread batcher_thread;
  std::mutex conn_mutex;                // guards conn_threads + open_fds
  std::vector<std::thread> conn_threads;
  std::set<int> open_fds;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<ScoreJob> queue;
  bool batcher_stop = false;  // guarded by queue_mutex

  mutable std::mutex stats_mutex;

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;  // guarded by shutdown_mutex
};

namespace {

std::string error_frame(const std::string& message) {
  serialize::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kError));
  w.str(message);
  return w.take();
}

}  // namespace

ModelServer::ModelServer(ServerOptions opts)
    : opts_(std::move(opts)), impl_(std::make_unique<Impl>()) {
  KHSS_REQUIRE(!opts_.socket_path.empty(),
               "serve: ServerOptions::socket_path is empty");
  KHSS_REQUIRE(opts_.max_batch_points > 0,
               "serve: max_batch_points must be positive, got "
                   << opts_.max_batch_points);
}

ModelServer::~ModelServer() { stop(); }

void ModelServer::add_model(std::string name, serialize::LoadedModel model) {
  KHSS_REQUIRE(!name.empty(), "serve: model name is empty");
  KHSS_REQUIRE_STATE(!impl_->running.load(),
                     "serve: add_model after start()");
  KHSS_REQUIRE(impl_->models.find(name) == impl_->models.end(),
               "serve: duplicate model name '" << name << "'");
  auto m = std::make_unique<Model>(name, std::move(model));
  impl_->models.emplace(std::move(name), std::move(m));
}

void ModelServer::start() {
  KHSS_REQUIRE_STATE(!impl_->running.load(), "serve: start() called twice");
  KHSS_REQUIRE_STATE(!impl_->models.empty(),
                     "serve: start() with no models loaded");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path '" + opts_.socket_path +
                             "' exceeds the AF_UNIX limit of " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes");
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  ::unlink(opts_.socket_path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("serve: bind('" + opts_.socket_path +
                             "') failed: " + std::strerror(err));
  }
  if (::listen(fd, opts_.listen_backlog) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(opts_.socket_path.c_str());
    throw std::runtime_error("serve: listen('" + opts_.socket_path +
                             "') failed: " + std::strerror(err));
  }

  impl_->listen_fd = fd;
  impl_->stopping.store(false);
  impl_->running.store(true);
  impl_->batcher_thread = std::thread([this] { batcher_loop(); });
  impl_->accept_thread = std::thread([this] { accept_loop(); });
}

void ModelServer::stop() {
  if (!impl_->running.exchange(false)) return;
  impl_->stopping.store(true);
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
    impl_->shutdown_requested = true;
  }
  impl_->shutdown_cv.notify_all();

  // 1. Stop accepting: unblock accept(2) and join the accept thread.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();

  // 2. Half-close every live connection for READING: blocked read_frame
  //    calls see EOF and the connection threads wind down, but responses to
  //    in-flight requests still go out the write side.  Threads unregister
  //    their fd (under conn_mutex) before closing it, so no fd here is
  //    stale or reused.
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (int fd : impl_->open_fds) ::shutdown(fd, SHUT_RD);
  }
  // Joining may race with accept_loop having just spawned a thread; the
  // accept thread is already joined, so the vector is stable now.
  for (std::thread& t : impl_->conn_threads) {
    if (t.joinable()) t.join();
  }
  impl_->conn_threads.clear();

  // 3. All producers are gone and every enqueued job was answered (each
  //    connection thread waits for its future before exiting), so the
  //    batcher drains an empty queue and exits.
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->batcher_stop = true;
  }
  impl_->queue_cv.notify_all();
  if (impl_->batcher_thread.joinable()) impl_->batcher_thread.join();

  ::unlink(opts_.socket_path.c_str());
}

bool ModelServer::running() const { return impl_->running.load(); }

bool ModelServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
  return impl_->shutdown_requested;
}

bool ModelServer::wait_for_shutdown(int poll_ms) {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  if (poll_ms <= 0) {
    impl_->shutdown_cv.wait(lock,
                            [this] { return impl_->shutdown_requested; });
  } else {
    impl_->shutdown_cv.wait_for(lock, std::chrono::milliseconds(poll_ms),
                                [this] { return impl_->shutdown_requested; });
  }
  return impl_->shutdown_requested;
}

std::vector<std::pair<std::string, ServeModelStats>> ModelServer::stats()
    const {
  std::vector<std::pair<std::string, ServeModelStats>> out;
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  for (const auto& [name, model] : impl_->models) {
    out.emplace_back(name, model->stats);
  }
  return out;
}

void ModelServer::accept_loop() {
  while (true) {
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed (stop()) or fatal error
    }
    if (impl_->stopping.load()) {
      ::close(fd);
      break;
    }
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    impl_->open_fds.insert(fd);
    impl_->conn_threads.emplace_back(
        [this, fd] { connection_loop(fd); });
  }
}

void ModelServer::connection_loop(int fd) {
  std::string frame;
  try {
    while (read_frame(fd, &frame)) {
      std::string response;
      try {
        response = handle_frame(frame);
      } catch (const std::exception& e) {
        // Malformed or failing requests get an error frame back — the
        // server never answers a bad frame by hanging up.
        response = error_frame(e.what());
      }
      write_frame(fd, response);
    }
  } catch (const std::exception&) {
    // Mid-frame EOF, oversized prefix, or a write to a dead peer: drop the
    // connection.  The daemon itself must survive any client behavior.
  }
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    impl_->open_fds.erase(fd);
  }
  ::close(fd);
}

std::string ModelServer::handle_frame(const std::string& frame) {
  serialize::ByteReader r(frame, "serve request");
  const auto type = static_cast<MsgType>(r.u8());
  serialize::ByteWriter w;
  switch (type) {
    case MsgType::kPing: {
      r.expect_exhausted("the ping request");
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      return w.take();
    }
    case MsgType::kScore:
    case MsgType::kScoreVariance: {
      const bool want_variance = type == MsgType::kScoreVariance;
      const std::string name = r.str();
      la::Matrix points = r.matrix();
      r.expect_exhausted("the score request");

      auto it = impl_->models.find(name);
      if (it == impl_->models.end()) {
        std::string known;
        for (const auto& [n, m] : impl_->models) {
          (void)m;
          known += known.empty() ? n : ", " + n;
        }
        throw std::runtime_error("serve: unknown model '" + name +
                                 "' (loaded: " + known + ")");
      }
      Model* model = it->second.get();
      const int dim = model->loaded.predictor.dim();
      if (points.cols() != dim) {
        throw std::runtime_error(
            "serve: model '" + name + "' expects dim " + std::to_string(dim) +
            " but the request has " + std::to_string(points.cols()) +
            " columns");
      }
      if (want_variance && !model->loaded.predictor.variance_enabled()) {
        throw std::runtime_error("serve: model '" + name +
                                 "' has no variance path attached");
      }

      std::promise<std::pair<la::Matrix, la::Vector>> promise;
      std::future<std::pair<la::Matrix, la::Vector>> future =
          promise.get_future();
      {
        std::lock_guard<std::mutex> lock(impl_->queue_mutex);
        if (impl_->batcher_stop) {
          throw std::runtime_error("serve: server is shutting down");
        }
        ScoreJob job;
        job.model = model;
        job.points = std::move(points);
        job.want_variance = want_variance;
        job.promise = std::move(promise);
        impl_->queue.push_back(std::move(job));
      }
      impl_->queue_cv.notify_one();

      auto [scores, variance] = future.get();  // rethrows a batcher failure
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.matrix(scores);
      if (want_variance) w.vec_f64(variance);
      return w.take();
    }
    case MsgType::kStats: {
      r.expect_exhausted("the stats request");
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      const auto snapshot = stats();
      w.u64(snapshot.size());
      for (const auto& [name, s] : snapshot) {
        w.str(name);
        w.u64(s.requests);
        w.u64(s.points);
        w.u64(s.batches);
        w.f64(s.busy_seconds);
      }
      return w.take();
    }
    case MsgType::kListModels:
    case MsgType::kListModelsV2: {
      r.expect_exhausted("the list request");
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.u64(impl_->models.size());
      for (const auto& [name, model] : impl_->models) {
        w.str(name);
        w.i32(model->loaded.model.n());
        w.i32(model->loaded.predictor.dim());
        w.i32(model->loaded.predictor.num_outputs());
        w.str(solver::backend_name(model->loaded.model.options().backend));
        if (type == MsgType::kListModelsV2) {
          w.str(kernel::kernel_spec(model->loaded.model.options().kernel));
        }
      }
      return w.take();
    }
    case MsgType::kShutdown: {
      r.expect_exhausted("the shutdown request");
      {
        std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
        impl_->shutdown_requested = true;
      }
      impl_->shutdown_cv.notify_all();
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      return w.take();
    }
  }
  throw std::runtime_error("serve: unknown message type " +
                           std::to_string(static_cast<int>(type)));
}

void ModelServer::batcher_loop() {
  while (true) {
    std::vector<ScoreJob> batch;
    {
      std::unique_lock<std::mutex> lock(impl_->queue_mutex);
      impl_->queue_cv.wait(lock, [this] {
        return !impl_->queue.empty() || impl_->batcher_stop;
      });
      if (impl_->queue.empty()) return;  // batcher_stop and fully drained

      // Coalesce: take the oldest job, then every other queued job for the
      // SAME model until the combined batch reaches max_batch_points rows.
      // Requests for other models stay queued in arrival order.
      Model* model = impl_->queue.front().model;
      int rows = 0;
      for (auto it = impl_->queue.begin(); it != impl_->queue.end();) {
        if (it->model == model &&
            (batch.empty() ||
             rows + it->points.rows() <= opts_.max_batch_points)) {
          rows += it->points.rows();
          batch.push_back(std::move(*it));
          it = impl_->queue.erase(it);
        } else {
          ++it;
        }
      }
    }

    Model* model = batch.front().model;
    const int dim = model->loaded.predictor.dim();
    int total_rows = 0;
    for (const ScoreJob& job : batch) total_rows += job.points.rows();

    try {
      la::Matrix combined(total_rows, dim);
      int row = 0;
      for (const ScoreJob& job : batch) {
        combined.set_block(row, 0, job.points);
        row += job.points.rows();
      }

      bool want_variance = false;
      for (const ScoreJob& job : batch) want_variance |= job.want_variance;

      util::Timer timer;
      la::Matrix scores;
      la::Vector variance;
      model->loaded.predictor.predict_batch(
          combined, scores, want_variance ? &variance : nullptr);
      const double elapsed = timer.seconds();

      // Split the coalesced score block back onto the per-request
      // promises.  Batch-split invariance makes this exact: each request
      // receives the same bytes it would have gotten scored alone.  The
      // variance slices are exact for the same reason — each point's
      // sigma^2 depends only on its own cross-kernel column.
      row = 0;
      for (ScoreJob& job : batch) {
        const int r = job.points.rows();
        la::Vector v;
        if (job.want_variance) {
          v.assign(variance.begin() + row, variance.begin() + row + r);
        }
        job.promise.set_value({scores.block(row, 0, r, scores.cols()),
                               std::move(v)});
        row += r;
      }

      std::lock_guard<std::mutex> lock(impl_->stats_mutex);
      model->stats.requests += batch.size();
      model->stats.points += static_cast<std::uint64_t>(total_rows);
      model->stats.batches += 1;
      model->stats.busy_seconds += elapsed;
    } catch (...) {
      for (ScoreJob& job : batch) {
        try {
          job.promise.set_exception(std::current_exception());
        } catch (const std::future_error&) {
          // value already set before the failure; nothing to deliver
        }
      }
    }
  }
}

}  // namespace khss::serve
