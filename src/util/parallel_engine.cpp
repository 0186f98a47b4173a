#include "util/parallel_engine.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace hetgrid {

ParallelEngine::ParallelEngine(unsigned threads) {
  const unsigned n = ThreadPool::resolve_threads(threads);
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

void ParallelEngine::run_groups(
    std::vector<std::vector<std::function<void()>>>& groups) {
  // Batch sizes are properties of the computation (not of the clock), so
  // they are recorded on the serial path too — a --threads=1 metrics
  // snapshot stays byte-stable. Flush *durations* are wall clock and are
  // recorded only when the pool actually runs.
  MetricsRegistry* metrics = installed_metrics();
  if (metrics != nullptr) {
    std::size_t ops = 0;
    for (const auto& group : groups) ops += group.size();
    metrics->histogram("engine.batch_ops").record(static_cast<double>(ops));
  }
  if (pool_ == nullptr) {
    for (auto& group : groups)
      for (auto& op : group) op();
    return;
  }
  std::chrono::steady_clock::time_point t0;
  if (metrics != nullptr) t0 = std::chrono::steady_clock::now();
  {
    ProfScope span("engine.flush");
    // One batched submit: a single queue lock and at most one wakeup per
    // parked worker instead of a lock + notify per group. The group
    // vectors outlive wait_idle() below, so capturing references is safe;
    // the queue mutex publishes the ops.
    std::vector<std::function<void()>> units;
    units.reserve(groups.size());
    for (auto& group : groups) {
      if (group.empty()) continue;
      units.emplace_back([&group] {
        for (auto& op : group) op();
      });
    }
    pool_->submit_batch(std::move(units));
    pool_->wait_idle();
  }
  if (metrics != nullptr)
    metrics->histogram("engine.flush_us")
        .record(std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
}

}  // namespace hetgrid
