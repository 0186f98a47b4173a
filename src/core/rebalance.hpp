// Online rebalancing: re-solving the paper's allocation from *estimated*
// cycle-times at a panel boundary, with a migration-cost threshold.
//
// The paper computes (r_i, c_j) once from static t_ij. On a non-dedicated
// machine the effective rates drift, and the static plan then runs at the
// speed of the slowed processor. plan_rebalance() is the decision half of
// the actuation path (doc/rebalance.md):
//
//   1. re-solve the allocation for the estimated rate grid with the
//      heuristic solver;
//   2. round the shares to per-line slot counts of the existing panel
//      period (largest remainder, every line keeps >= 1 slot);
//   3. rewrite the current slot maps with *minimal churn*: lines losing
//      slots give up their highest-index slots, lines gaining slots claim
//      the freed slots round-robin — so the number of migrated block
//      rows/columns equals the L1 distance of the multiplicity vectors,
//      never a full relayout;
//   4. price the proposal: predicted trailing-sweep makespan under the
//      current vs the proposed maps, and the migration bill (blocks whose
//      owner changes x per-block transfer cost). Act only when the
//      predicted gain over the remaining sweeps clears both the relative
//      min-gain band and the cost threshold x migration cost.
//
// Everything here is a pure function of its inputs — no clocks, no
// randomness — which is what makes the runtime's migration schedule
// bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cycle_time_grid.hpp"
#include "obs/cycle_estimator.hpp"

namespace hetgrid {

// Thresholds of the act/hold decision, deliberately conservative: a
// re-solve that predicts less than 5% per-sweep gain, or whose gain over
// the remaining sweeps does not repay the migration bill, changes nothing.

/// Required relative per-sweep improvement: act only when
/// proposed_sweep < (1 - kRebalanceMinGain) * current_sweep.
inline constexpr double kRebalanceMinGain = 0.05;
/// Required ratio of predicted total gain to migration cost.
inline constexpr double kRebalanceCostThreshold = 1.0;

/// The trailing region the decision prices: block rows [row_lo, row_hi) x
/// block columns [col_lo, col_hi), optionally restricted to the lower
/// triangle (Cholesky). `remaining_sweeps` converts the per-sweep gain
/// into a total (for a shrinking trailing matrix, (nb - k) / 3 is the
/// right order); `per_block_move_cost` is the transfer seconds for one
/// block and `block_multiplier` how many matrices one owner change drags
/// along (3 for MMM's A, B, C; 1 for the factorizations).
struct RebalanceRegion {
  std::size_t row_lo = 0, row_hi = 0;
  std::size_t col_lo = 0, col_hi = 0;
  bool lower_only = false;
  double remaining_sweeps = 1.0;
  double per_block_move_cost = 0.0;
  double block_multiplier = 1.0;
};

/// The planner's verdict. `row_map` / `col_map` are the proposed period
/// slot maps (equal to the current ones when nothing changed); callers
/// apply them only when `act` is true.
struct RebalanceDecision {
  bool act = false;
  std::vector<std::size_t> row_map, col_map;
  double current_sweep = 0.0;   // predicted region sweep, current maps
  double proposed_sweep = 0.0;  // same, proposed maps
  double predicted_gain = 0.0;  // (current - proposed) * remaining_sweeps
  double migration_cost = 0.0;  // blocks_to_move * per_block_move_cost
  std::size_t blocks_to_move = 0;
  std::size_t row_slots_changed = 0, col_slots_changed = 0;
};

/// One applied rebalance, as recorded by the runtime / simulator and
/// surfaced in the imbalance report (obs/imbalance.hpp).
struct RebalanceEvent {
  std::size_t step = 0;
  double current_sweep = 0.0;
  double proposed_sweep = 0.0;
  double migration_cost = 0.0;
  std::size_t blocks_moved = 0;
};

/// Re-solves and prices one rebalance at a panel boundary. `rates` is the
/// estimated p x q cycle-time grid; `row_map` / `col_map` the live panel
/// slot maps (values < p resp. q, every line owning >= 1 slot). Pure and
/// deterministic.
RebalanceDecision plan_rebalance(const CycleTimeGrid& rates,
                                 const std::vector<std::size_t>& row_map,
                                 const std::vector<std::size_t>& col_map,
                                 const RebalanceRegion& region);

/// Assembles the estimated rate grid a re-solve runs on: lane (proc, op)
/// of `estimates` supplies seconds-per-unit once it has >= min_samples
/// samples; unsampled processors fall back to the static `fallback` entry.
CycleTimeGrid estimated_rate_grid(const std::vector<CycleEstimate>& estimates,
                                  const CycleTimeGrid& fallback, ObsOp op,
                                  std::uint64_t min_samples);

}  // namespace hetgrid
