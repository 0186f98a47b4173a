// Wall-clock profiler: RAII scoped spans on std::chrono::steady_clock,
// recorded into per-thread buffers and merged when the profiler stops.
//
// This is the real-time sibling of the virtual-time TraceSink and follows
// the same null-pointer discipline: ProfScope's constructor loads one
// atomic pointer, and when no profiler is installed neither constructor
// nor destructor touches the clock — attaching (or not attaching) a
// profiler cannot change any computed result, only observe it.
//
// While running, each thread appends spans to its own buffer (registered
// once, under a mutex, on the thread's first span); there is no
// cross-thread synchronization on the hot path. stop() merges the buffers
// into per-thread lanes exportable through the existing Chrome-trace
// writer, plus a top-k hotspot table (util/table) aggregated by span name.
//
// Wall-clock lanes are *not* byte-stable across runs — real time never
// is. The deterministic side of a profiling run lives in obs/metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/table.hpp"

namespace hetgrid {

class Profiler {
 public:
  Profiler();   // out of line: members need the complete ThreadLog
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Installs this profiler as the process-wide span recorder and names
  /// the calling thread's lane "main". Only one profiler may run at a
  /// time.
  void start();

  /// Uninstalls and merges every thread's buffer. Must be called after
  /// the instrumented work has quiesced (pools idle); spans recorded
  /// after stop() are dropped.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  struct ThreadLog;  // per-thread span buffer (defined in profiler.cpp)

  // --- Results, valid after stop():

  /// One lane per thread that recorded at least one span, in registration
  /// order ("main", then workers as they first record).
  std::size_t lanes() const { return lane_names_.size(); }
  const std::vector<std::string>& lane_names() const { return lane_names_; }

  /// Spans as trace events (proc = lane index, seconds relative to
  /// start()), ready for write_chrome_trace.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Wall-clock seconds between start() and stop().
  double total_seconds() const { return total_seconds_; }

  /// Sum of the durations of every span named `name`.
  double span_seconds(const std::string& name) const;

  /// Chrome/Perfetto trace with one lane per recording thread.
  void write_chrome(std::ostream& os) const;

  /// Top-k spans by self time: name, calls, total ms, self ms (total
  /// minus what directly nested spans on the same lane cover), mean us,
  /// and share of all self time, so the shares sum to 100%.
  Table hotspot_table(std::size_t top_k = 10) const;

  /// Called by ProfScope; appends to the calling thread's buffer.
  void record(const char* name,
              std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end);

 private:
  ThreadLog* log_for_current_thread();

  std::mutex mu_;  // guards logs_ registration only
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::chrono::steady_clock::time_point start_tp_;
  std::atomic<bool> running_{false};
  // Merged on stop():
  std::vector<std::string> lane_names_;
  std::vector<TraceEvent> events_;
  double total_seconds_ = 0.0;
};

namespace obs_detail {
extern std::atomic<Profiler*> g_profiler;
}  // namespace obs_detail

/// The currently running profiler, or nullptr.
inline Profiler* installed_profiler() {
  return obs_detail::g_profiler.load(std::memory_order_acquire);
}

/// Names the calling thread's profiler lane (thread pool workers call
/// this with "worker-<i>"). Safe — and a cheap thread-local store — when
/// no profiler is running.
void prof_set_thread_name(const std::string& name);

/// RAII scoped span: records [construction, destruction) under `name` on
/// the profiler installed at construction time. `name` must outlive the
/// scope (pass string literals).
class ProfScope {
 public:
  explicit ProfScope(const char* name)
      : prof_(installed_profiler()), name_(name) {
    if (prof_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }
  ~ProfScope() {
    if (prof_ != nullptr)
      prof_->record(name_, begin_, std::chrono::steady_clock::now());
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_;
  const char* name_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace hetgrid
