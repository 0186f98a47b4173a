// Time-varying cycle-time traces: the drift scenarios the rebalancer is
// evaluated against.
//
// A trace multiplies processor `proc`'s static cycle-time by a
// step-dependent factor, composing three primitive shapes:
//   - step:     factor f from step `onset` onwards (a node slows down);
//   - ramp:     factor interpolates 1 -> f over [onset, onset + length)
//               (gradual contention build-up);
//   - recovery: factor f over [onset, recovery), back to 1 afterwards
//               (a transient straggler that heals).
// Factors on the same processor multiply, so scenarios compose. An empty
// trace is the static paper model; backends skip the multiply entirely in
// that case, keeping drift-free runs bit-identical to pre-trace builds.
//
// Traces are plain data evaluated as a pure function of (proc, step) —
// deterministic in virtual time, independent of the thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace hetgrid {

class CycleTimeTrace {
 public:
  /// Processor `proc` runs `factor`x slower from step `onset` onwards.
  CycleTimeTrace& add_step(std::size_t proc, double factor,
                           std::size_t onset) {
    HG_CHECK(factor > 0.0, "trace factor must be positive");
    events_.push_back({proc, factor, onset, 0, 0});
    return *this;
  }

  /// Slowdown ramps linearly from 1 at `onset` to `factor` at
  /// `onset + length` (then stays there). length == 0 degenerates to a step.
  CycleTimeTrace& add_ramp(std::size_t proc, double factor, std::size_t onset,
                           std::size_t length) {
    HG_CHECK(factor > 0.0, "trace factor must be positive");
    events_.push_back({proc, factor, onset, length, 0});
    return *this;
  }

  /// Slowdown holds over [onset, recovery), then the processor heals.
  CycleTimeTrace& add_recovery(std::size_t proc, double factor,
                               std::size_t onset, std::size_t recovery) {
    HG_CHECK(factor > 0.0, "trace factor must be positive");
    HG_CHECK(recovery > onset, "recovery must come after onset");
    events_.push_back({proc, factor, onset, 0, recovery});
    return *this;
  }

  /// The straggler scenario preset (EXPERIMENTS section 16): each processor
  /// in `procs` runs `factor`x slower from `onset` on; `recover` > 0 heals
  /// them at that step.
  static CycleTimeTrace straggler(const std::vector<std::size_t>& procs,
                                  double factor, std::size_t onset,
                                  std::size_t recover = 0) {
    CycleTimeTrace t;
    for (std::size_t p : procs) {
      if (recover > 0)
        t.add_recovery(p, factor, onset, recover);
      else
        t.add_step(p, factor, onset);
    }
    return t;
  }

  bool empty() const { return events_.empty(); }

  /// Multiplicative slowdown of processor `proc` at kernel step `step`
  /// (1.0 when no event applies).
  double factor(std::size_t proc, std::size_t step) const {
    double f = 1.0;
    for (const Event& e : events_) {
      if (e.proc != proc || step < e.onset) continue;
      if (e.recovery > 0 && step >= e.recovery) continue;
      if (e.length > 0 && step < e.onset + e.length) {
        const double frac = static_cast<double>(step - e.onset + 1) /
                            static_cast<double>(e.length);
        f *= 1.0 + (e.factor - 1.0) * frac;
      } else {
        f *= e.factor;
      }
    }
    return f;
  }

 private:
  struct Event {
    std::size_t proc;
    double factor;
    std::size_t onset;
    std::size_t length;    // > 0: ramp over [onset, onset + length)
    std::size_t recovery;  // > 0: heal at this step
  };
  std::vector<Event> events_;
};

}  // namespace hetgrid
