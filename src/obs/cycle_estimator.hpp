// Runtime cycle-time estimation: the load-balancing signal layer.
//
// The paper's allocations assume static, known cycle-times t_ij. On a real
// (non-dedicated) machine they drift, so a dynamic rebalancer needs the
// *effective* seconds-per-block-update each processor currently delivers.
// CycleTimeEstimator consumes per-task samples — (processor, op class,
// work units, seconds) — and maintains one EWMA estimate of seconds/unit
// per (processor, op class) lane, where a "unit" is the paper's flop
// measure: costs.X * vol_frac, i.e. the cycle-time-free part of a charge.
// Feeding it the backends' virtual-time charges therefore recovers the
// planted t_ij exactly, which is how estimator accuracy is tested; feeding
// wall-clock task durations recovers the machine's real effective rates.
//
// Drift events ride on the lanes: once a lane has `min_samples` samples
// its EWMA is "armed" as the baseline; whenever the EWMA later moves more
// than `drift_band` (relative) away from the baseline, one typed
// DriftEvent is emitted and the baseline re-arms at the new value. A
// planted 2x mid-run slowdown therefore fires exactly once (the EWMA
// converges to the new rate, which stays inside the re-armed band).
//
// Null-sink contract (doc/observability.md): instrumentation sites fetch
// the installed observation once (a single relaxed atomic load) and do
// nothing when none is installed. Observation never changes any computed
// result — samples are derived from values the backends compute anyway.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace hetgrid {

/// Kernel-op classes the estimator distinguishes. Coarse on purpose: the
/// paper's cost model prices every op as cycle_time * flop-units, so one
/// rate per class is enough to reconstruct t_ij, and the classes map 1:1
/// onto the phases a rebalancer would re-cost (panel / solve / update).
enum class ObsOp : std::uint8_t {
  kPanel = 0,   // panel factorizations ("panel")
  kSolve = 1,   // triangular solves ("l-solve", "u-solve")
  kUpdate = 2,  // trailing updates and GEMM-like work ("update", "w-*")
  kAux = 3,     // everything else ("t-form", reductions)
};
inline constexpr std::size_t kObsOpCount = 4;

/// Stable lower-case class name ("panel", "solve", "update", "aux").
const char* obs_op_name(ObsOp op);

/// One (processor, op class) lane's current state.
struct CycleEstimate {
  std::size_t proc = 0;
  ObsOp op = ObsOp::kUpdate;
  double seconds_per_unit = 0.0;  // the EWMA estimate of effective t_ij
  double units = 0.0;             // total work units sampled on this lane
  std::uint64_t samples = 0;
};

/// Typed drift signal: lane (proc, op) moved from `before` (the armed
/// baseline) to `after` (the EWMA when the band was crossed) at `step`.
struct DriftEvent {
  std::size_t proc = 0;
  ObsOp op = ObsOp::kUpdate;
  std::size_t step = 0;
  double before = 0.0;
  double after = 0.0;
};

class CycleTimeEstimator {
 public:
  struct Options {
    double alpha = 0.25;        // EWMA weight of the newest sample
    double drift_band = 0.5;    // relative band around the armed baseline
    std::uint64_t min_samples = 2;  // samples before a lane arms
  };

  CycleTimeEstimator() = default;
  explicit CycleTimeEstimator(const Options& opt) : opt_(opt) {}

  /// Folds one sample into lane (proc, op). `units` is the cycle-time-free
  /// work measure, `seconds` the observed duration; non-positive samples
  /// are ignored. Thread-safe (the serve introspection path reads state
  /// while a run feeds it).
  void sample(std::size_t proc, ObsOp op, double units, double seconds,
              std::size_t step);

  /// Current estimates, sorted by (proc, op) — deterministic output order.
  std::vector<CycleEstimate> estimates() const;
  std::vector<DriftEvent> drift_events() const;

  const Options& options() const { return opt_; }

 private:
  struct Lane {
    double ewma = 0.0;
    double units = 0.0;
    std::uint64_t samples = 0;
    double baseline = 0.0;
    bool armed = false;
  };

  // std::map keeps lanes ordered by (proc, op): estimates() and every
  // report built from it are byte-stable without a sort.
  mutable std::mutex mu_;
  Options opt_;
  std::map<std::pair<std::size_t, std::uint8_t>, Lane> lanes_;
  std::vector<DriftEvent> drift_;
};

}  // namespace hetgrid
