// The MP runtime's host-side counters, for the thread-invariance tests.
// Block-pool traffic (acquire / erase) and the step-window waits happen
// only on the host thread, at points fixed by emission order, so every
// thread count must read the serial run's values.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace hetgrid {

using HostCounters = std::map<std::string, std::uint64_t>;

/// Runs `run()` with a fresh metrics registry installed and returns the
/// host-side counters it recorded.
template <class Run>
HostCounters count_host_work(Run&& run) {
  MetricsRegistry reg;
  MetricsRegistry* prev = install_metrics(&reg);
  run();
  install_metrics(prev);
  HostCounters out;
  for (const char* name :
       {"block_store.pool_hits", "block_store.pool_misses",
        "block_store.pool_evictions", "mp.window_waits"})
    out[name] = reg.counter(name).value();
  return out;
}

}  // namespace hetgrid
