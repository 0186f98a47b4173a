#include "obs/profiler.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"

namespace hetgrid {

namespace obs_detail {
std::atomic<Profiler*> g_profiler{nullptr};
}  // namespace obs_detail

namespace {

// Session counter: bumped on every start() so a thread's cached log
// pointer from a previous profiler is never reused against a new one.
std::atomic<std::uint64_t> g_session{0};
thread_local std::uint64_t t_session = 0;
thread_local void* t_log = nullptr;
thread_local std::string t_thread_name;

}  // namespace

struct Profiler::ThreadLog {
  struct RawSpan {
    const char* name;
    std::chrono::steady_clock::time_point begin;
    std::chrono::steady_clock::time_point end;
  };
  std::string name;
  std::vector<RawSpan> spans;
};

Profiler::Profiler() = default;

Profiler::~Profiler() {
  if (running()) stop();
}

void Profiler::start() {
  HG_CHECK(!running(), "Profiler::start called while already running");
  Profiler* expected = nullptr;
  HG_CHECK(obs_detail::g_profiler.compare_exchange_strong(
               expected, this, std::memory_order_acq_rel),
           "another Profiler is already installed");
  g_session.fetch_add(1, std::memory_order_relaxed);
  logs_.clear();
  lane_names_.clear();
  events_.clear();
  total_seconds_ = 0.0;
  running_.store(true, std::memory_order_release);
  start_tp_ = std::chrono::steady_clock::now();
  prof_set_thread_name("main");
  (void)log_for_current_thread();  // "main" is always lane 0
}

void Profiler::stop() {
  HG_CHECK(running(), "Profiler::stop called while not running");
  const auto end_tp = std::chrono::steady_clock::now();
  obs_detail::g_profiler.store(nullptr, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  total_seconds_ = std::chrono::duration<double>(end_tp - start_tp_).count();

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t lane = 0; lane < logs_.size(); ++lane) {
    const ThreadLog& log = *logs_[lane];
    lane_names_.push_back(
        log.name.empty() ? "thread-" + std::to_string(lane) : log.name);
    for (const ThreadLog::RawSpan& s : log.spans) {
      TraceEvent e;
      e.kind = TraceEventKind::kComputeBlock;
      e.proc = lane;
      e.start = std::chrono::duration<double>(s.begin - start_tp_).count();
      e.duration = std::chrono::duration<double>(s.end - s.begin).count();
      e.name = s.name;
      events_.push_back(std::move(e));
    }
  }
}

Profiler::ThreadLog* Profiler::log_for_current_thread() {
  const std::uint64_t session = g_session.load(std::memory_order_relaxed);
  if (t_session == session && t_log != nullptr)
    return static_cast<ThreadLog*>(t_log);
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = logs_.back().get();
  log->name = t_thread_name;
  t_session = session;
  t_log = log;
  return log;
}

void Profiler::record(const char* name,
                      std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end) {
  if (!running()) return;  // span outlived the profiler; drop it
  log_for_current_thread()->spans.push_back({name, begin, end});
}

double Profiler::span_seconds(const std::string& name) const {
  double acc = 0.0;
  for (const TraceEvent& e : events_)
    if (e.name == name) acc += e.duration;
  return acc;
}

void Profiler::write_chrome(std::ostream& os) const {
  write_chrome_trace(os, events_, lane_names_.size(), lane_names_);
}

Table Profiler::hotspot_table(std::size_t top_k) const {
  struct Agg {
    std::uint64_t calls = 0;
    double total = 0.0;
    double self = 0.0;  // minus the spans directly nested on its lane
  };
  // Spans on one lane nest (they are scopes): walked by start, longest
  // first on ties, the innermost open span is each span's direct parent.
  std::vector<const TraceEvent*> order;
  for (const TraceEvent& e : events_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              return std::tie(a->proc, a->start, b->duration) <
                     std::tie(b->proc, b->start, a->duration);
            });
  std::map<std::string, Agg> by_name;
  std::vector<std::pair<const TraceEvent*, Agg*>> open;
  double all = 0.0;  // the self times' sum: the outermost spans' durations
  for (const TraceEvent* e : order) {
    while (!open.empty() &&
           (open.back().first->proc != e->proc ||
            open.back().first->start + open.back().first->duration <=
                e->start))
      open.pop_back();
    if (open.empty())
      all += e->duration;
    else
      open.back().second->self -= e->duration;
    Agg& a = by_name[e->name];
    a.calls += 1;
    a.total += e->duration;
    a.self += e->duration;
    open.emplace_back(e, &a);
  }
  std::vector<std::pair<std::string, Agg>> ranked(by_name.begin(),
                                                  by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.second.self != y.second.self) return x.second.self > y.second.self;
    return x.first < y.first;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);

  Table table("hotspots (wall clock, top " + std::to_string(top_k) + ")");
  table.header({"span", "calls", "total ms", "self ms", "mean us", "share"});
  for (const auto& [name, a] : ranked) {
    const double mean_us =
        a.calls == 0 ? 0.0 : a.total * 1e6 / static_cast<double>(a.calls);
    table.row({name, Table::num(static_cast<std::int64_t>(a.calls)),
               Table::num(a.total * 1e3, 3), Table::num(a.self * 1e3, 3),
               Table::num(mean_us, 1),
               Table::num(all > 0.0 ? 100.0 * a.self / all : 0.0, 1) + "%"});
  }
  return table;
}

void prof_set_thread_name(const std::string& name) {
  t_thread_name = name;
  if (t_log != nullptr &&
      t_session == g_session.load(std::memory_order_relaxed))
    static_cast<Profiler::ThreadLog*>(t_log)->name = name;
}

}  // namespace hetgrid
