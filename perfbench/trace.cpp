#include "trace.hpp"

#include "util/json.hpp"

namespace khss::perfbench {

int Trace::thread_index() {
  const auto it = threads_.try_emplace(std::this_thread::get_id(),
                                       static_cast<int>(threads_.size()));
  return it.first->second;
}

int Trace::begin(const std::string& name, int parent) {
  const double start = micros(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, start, -1.0, thread_index()});
  return static_cast<int>(spans_.size()) - 1;
}

double Trace::end(int id) {
  const double stop = micros(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_us = stop;
  return (s.end_us - s.start_us) * 1e-6;
}

void Trace::add(const std::string& name, int parent, Clock::time_point start,
                Clock::time_point stop) {
  const double a = micros(start);
  const double b = micros(stop);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, a, b, thread_index()});
}

double Trace::children_seconds(int parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent && s.end_us >= 0.0) us += s.end_us - s.start_us;
  }
  return us * 1e-6;
}

bool Trace::write(const std::string& rows_path,
                  const std::string& chrome_path) const {
  std::lock_guard<std::mutex> lock(mu_);
  util::Json rows = util::Json::array();
  util::Json events = util::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end_us = s.end_us >= 0.0 ? s.end_us : s.start_us;
    util::Json row = util::Json::object();
    row.set("id", static_cast<long>(i));
    row.set("name", s.name);
    row.set("parent", static_cast<long>(s.parent));
    row.set("thread", static_cast<long>(s.thread));
    row.set("start_s", s.start_us * 1e-6);
    row.set("end_s", end_us * 1e-6);
    rows.push(std::move(row));

    util::Json args = util::Json::object();
    args.set("id", static_cast<long>(i));
    args.set("parent", static_cast<long>(s.parent));
    util::Json ev = util::Json::object();
    ev.set("name", s.name);
    ev.set("cat", "khss");
    ev.set("ph", "X");
    ev.set("ts", s.start_us);
    ev.set("dur", end_us - s.start_us);
    ev.set("pid", 1L);
    ev.set("tid", static_cast<long>(s.thread));
    ev.set("args", std::move(args));
    events.push(std::move(ev));
  }
  util::Json chrome = util::Json::object();
  chrome.set("traceEvents", std::move(events));
  chrome.set("displayTimeUnit", "ms");
  return rows.save(rows_path) && chrome.save(chrome_path);
}

}  // namespace khss::perfbench
