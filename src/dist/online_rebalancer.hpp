// The online rebalancer (doc/rebalance.md): one run's rebalancing state,
// held by both backends — the simulator (sim/simulator.cpp) and the
// message-passing runtime (mp/mp_runtime.cpp).
//
// The paper computes the allocation once, from known cycle-times. With
// `RuntimeOptions::rebalance = kPanel` a run re-solves it at panel
// boundaries from the rates it has measured so far. This type owns what
// that takes: the live owner lines, the drift-traced cycle-times, the
// rebalancer's own estimator and its feed, and the boundary re-solve.
// What a backend does with an acting decision stays with the backend: the
// simulator bills the migration, the MP runtime moves the blocks.
//
// Rebalancing off and an empty trace reduce every accessor to the paper's
// static model: owner() asks the distribution, cycle_time() multiplies
// nothing in, and sample() feeds only an installed observation.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/machine.hpp"
#include "core/rebalance.hpp"
#include "dist/distribution.hpp"
#include "obs/cycle_estimator.hpp"

namespace hetgrid {

struct RunObservation;

class OnlineRebalancer {
 public:
  /// Sets up one run over an nbr x nbc block grid; `obs` is the run's
  /// installed observation (null when unobserved). These are both
  /// backends' entry checks: the network costs must be valid and the
  /// machine grid must match the distribution's. With rebalancing on,
  /// `dist` must be aligned: its owners factor into one grid row per block
  /// row and one grid column per block column, which become the live lines.
  OnlineRebalancer(const Machine& machine, const Distribution2D& dist,
                   const RuntimeOptions& opts, std::size_t nbr,
                   std::size_t nbc, RunObservation* obs);

  bool on() const { return on_; }

  /// Live owner of block (bi, bj): the distribution's owner until an
  /// acting replan() rewrites the lines.
  ProcCoord owner(std::size_t bi, std::size_t bj) const {
    if (!on_) return dist_.owner(bi, bj);
    return ProcCoord{row_of_[bi], col_of_[bj]};
  }

  /// Effective cycle-time of processor `id` (row-major grid index) at
  /// kernel step `step` under the drift trace. An empty trace performs no
  /// multiply, so drift-free runs keep the static model's bits.
  double cycle_time(std::size_t id, std::size_t step) const {
    const double t = machine_.grid.row_major()[id];
    return opts_.trace.empty() ? t : t * opts_.trace.factor(id, step);
  }

  /// Books one charge — `seconds` of `op` work, `units` of it in
  /// cycle-time-free block updates — with the rebalancer's own estimator
  /// (rebalancing on) and with the installed observation (when there is
  /// one). The two are separate so that migration decisions never depend
  /// on whether the run is observed.
  void sample(std::size_t id, ObsOp op, double units, double seconds,
              std::size_t step);

  /// The boundary re-solve at step `k` over `region` (absolute block
  /// coordinates). Holds — returns nothing, and nothing was solved — with
  /// rebalancing off, at step 0, and once the region has fewer block rows
  /// than p or block columns than q (plan_rebalance keeps every line at
  /// >= 1 slot). Otherwise fills the region's per-block move cost from the
  /// network, plans on the trailing sub-maps from the estimated rates and
  /// returns the decision; when it acts, the lines at and past the
  /// region's origin have been rewritten.
  std::optional<RebalanceDecision> replan(std::size_t k,
                                          RebalanceRegion region);

 private:
  const Machine& machine_;
  const Distribution2D& dist_;
  const RuntimeOptions& opts_;
  RunObservation* obs_;
  bool on_;
  // Block row bi lives on grid row row_of_[bi], block column bj on grid
  // column col_of_[bj] (rebalancing on only).
  std::vector<std::size_t> row_of_, col_of_;
  CycleTimeEstimator est_;
};

}  // namespace hetgrid
