// Wall-clock metrics registry: counters, gauges, and log-bucketed
// histograms for the real execution machinery (thread pool, task graph,
// exact solver, gemm, block store).
//
// Design mirrors the TraceSink null-pointer discipline: instrumentation
// sites call the free helpers (metric_count / metric_gauge /
// metric_record), which reduce to one atomic load and a branch when no
// registry is installed — the library pays nothing unless a profiling run
// installs one via install_metrics().
//
// Determinism contract (doc/observability.md): every metric recorded on
// the serial path (--threads=1) carries values derived only from the
// computation itself — block counts, node counts, pool hits — never from
// wall-clock time. Wall-clock-valued metrics (task latency, flush
// duration) are recorded exclusively on the pooled path, so a
// --threads=1 snapshot is byte-stable across runs. The snapshot writer
// reuses chrome_trace.cpp's fixed-point number formatting for the same
// reason.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hetgrid {

/// Monotone event counter. add() is thread-safe and wait-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge that also tracks the maximum ever set (queue depth,
/// resident blocks). set() is thread-safe.
class Gauge {
 public:
  void set(double v);
  double last() const { return last_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> last_{0.0};
  std::atomic<double> max_{0.0};
};

/// Power-of-two log-bucketed histogram over non-negative values. A value
/// v lands in the bucket whose upper edge is the smallest 2^e >= v (via
/// frexp), clamped to [2^kMinExp, 2^kMaxExp]. Quantiles report the upper
/// edge of the bucket holding the requested rank — coarse, but exactly
/// reproducible, which is what the byte-stable snapshot needs.
class Histogram {
 public:
  static constexpr int kMinExp = -32;  // bucket 0 upper edge: 2^-32
  static constexpr int kMaxExp = 63;   // last bucket upper edge: 2^63
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1);

  void record(double v);
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Upper edge of the bucket containing the ceil(q * count)-th smallest
  /// sample (q in [0, 1]); 0 when empty.
  double quantile(double q) const;
  /// (upper_edge, count) for every non-empty bucket, ascending.
  std::vector<std::pair<double, std::uint64_t>> buckets() const;

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
};

/// Named metrics, created on first use and alive for the registry's
/// lifetime (stable references; storage is never rehashed). Lookup takes
/// a mutex — cheap enough for profiling runs, and the helpers below skip
/// it entirely when no registry is installed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Deterministic JSON snapshot: one record per metric, sorted by name,
  /// numbers in chrome_trace.cpp's trimmed fixed-point format.
  void write_json(std::ostream& os) const;
  std::string snapshot_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

namespace obs_detail {
extern std::atomic<MetricsRegistry*> g_metrics;
}  // namespace obs_detail

/// Installs `m` as the process-wide registry the instrumentation helpers
/// feed (nullptr uninstalls). Returns the previously installed registry.
/// Install/uninstall while instrumented code is running on other threads
/// is not supported — bracket the workload, as the CLI does.
MetricsRegistry* install_metrics(MetricsRegistry* m);

inline MetricsRegistry* installed_metrics() {
  return obs_detail::g_metrics.load(std::memory_order_acquire);
}

/// Instrumentation helpers: no-ops (one load + branch) when nothing is
/// installed.
inline void metric_count(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = installed_metrics()) m->counter(name).add(n);
}
inline void metric_gauge(const char* name, double v) {
  if (MetricsRegistry* m = installed_metrics()) m->gauge(name).set(v);
}
inline void metric_record(const char* name, double v) {
  if (MetricsRegistry* m = installed_metrics()) m->histogram(name).record(v);
}

}  // namespace hetgrid
