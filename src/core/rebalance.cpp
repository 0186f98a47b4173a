#include "core/rebalance.hpp"

#include <algorithm>
#include <cmath>

#include "core/heuristic.hpp"
#include "core/rounding.hpp"
#include "util/check.hpp"

namespace hetgrid {

namespace {

std::vector<std::size_t> multiplicities(const std::vector<std::size_t>& map,
                                        std::size_t lines) {
  std::vector<std::size_t> cnt(lines, 0);
  for (std::size_t s : map) {
    HG_CHECK(s < lines, "slot map entry out of range");
    ++cnt[s];
  }
  return cnt;
}

// Rewrites `map` so line l owns exactly want[l] slots while moving as few
// slots as possible: surplus lines free their highest-index slots, and the
// freed positions (ascending) are granted round-robin over the deficit
// lines in ascending line order. Deterministic; the number of reassigned
// slots is half the L1 distance between the multiplicity vectors.
std::vector<std::size_t> remap_slots(const std::vector<std::size_t>& map,
                                     const std::vector<std::size_t>& want,
                                     std::size_t* changed) {
  std::vector<std::size_t> have = multiplicities(map, want.size());
  std::vector<std::size_t> out = map;
  std::vector<std::size_t> freed;
  for (std::size_t i = map.size(); i-- > 0;) {
    const std::size_t line = map[i];
    if (have[line] > want[line]) {
      freed.push_back(i);
      --have[line];
    }
  }
  std::sort(freed.begin(), freed.end());
  std::size_t cursor = 0;
  for (std::size_t pos : freed) {
    while (have[cursor % want.size()] >= want[cursor % want.size()]) ++cursor;
    const std::size_t line = cursor % want.size();
    out[pos] = line;
    ++have[line];
    ++cursor;  // round-robin: next deficit line gets the next freed slot
  }
  *changed = freed.size();
  return out;
}

// Predicted duration of one sweep over the region: the busiest processor's
// block count times its estimated per-block rate.
double region_sweep(const CycleTimeGrid& rates,
                    const std::vector<std::size_t>& row_map,
                    const std::vector<std::size_t>& col_map,
                    const RebalanceRegion& reg) {
  const std::size_t q = rates.cols();
  std::vector<double> cnt(rates.rows() * q, 0.0);
  for (std::size_t bi = reg.row_lo; bi < reg.row_hi; ++bi) {
    const std::size_t gi = row_map[bi % row_map.size()];
    for (std::size_t bj = reg.col_lo; bj < reg.col_hi; ++bj) {
      if (reg.lower_only && bj > bi) continue;
      cnt[gi * q + col_map[bj % col_map.size()]] += 1.0;
    }
  }
  double sweep = 0.0;
  for (std::size_t i = 0; i < rates.rows(); ++i)
    for (std::size_t j = 0; j < q; ++j)
      sweep = std::max(sweep, cnt[i * q + j] * rates(i, j));
  return sweep;
}

// Region blocks whose (grid row, grid col) owner pair differs between the
// current and the proposed maps — the migration bill, pre-multiplier.
std::size_t moved_blocks(const std::vector<std::size_t>& cur_r,
                         const std::vector<std::size_t>& cur_c,
                         const std::vector<std::size_t>& new_r,
                         const std::vector<std::size_t>& new_c,
                         const RebalanceRegion& reg) {
  std::size_t moved = 0;
  for (std::size_t bi = reg.row_lo; bi < reg.row_hi; ++bi) {
    const bool row_same = cur_r[bi % cur_r.size()] == new_r[bi % new_r.size()];
    for (std::size_t bj = reg.col_lo; bj < reg.col_hi; ++bj) {
      if (reg.lower_only && bj > bi) continue;
      if (!row_same || cur_c[bj % cur_c.size()] != new_c[bj % new_c.size()])
        ++moved;
    }
  }
  return moved;
}

}  // namespace

RebalanceDecision plan_rebalance(const CycleTimeGrid& rates,
                                 const std::vector<std::size_t>& row_map,
                                 const std::vector<std::size_t>& col_map,
                                 const RebalanceRegion& region) {
  HG_CHECK(!row_map.empty() && !col_map.empty(),
           "plan_rebalance needs non-empty slot maps");
  HG_CHECK(region.row_hi >= region.row_lo && region.col_hi >= region.col_lo,
           "plan_rebalance region is inverted");

  RebalanceDecision d;
  d.current_sweep = region_sweep(rates, row_map, col_map, region);

  const GridAllocation alloc = heuristic_allocation(rates);

  const std::vector<std::size_t> want_r =
      round_to_sum_positive(alloc.r, row_map.size());
  const std::vector<std::size_t> want_c =
      round_to_sum_positive(alloc.c, col_map.size());
  d.row_map = remap_slots(row_map, want_r, &d.row_slots_changed);
  d.col_map = remap_slots(col_map, want_c, &d.col_slots_changed);

  d.proposed_sweep = region_sweep(rates, d.row_map, d.col_map, region);
  const std::size_t moved =
      moved_blocks(row_map, col_map, d.row_map, d.col_map, region);
  d.blocks_to_move = static_cast<std::size_t>(
      std::llround(static_cast<double>(moved) * region.block_multiplier));
  d.migration_cost =
      static_cast<double>(d.blocks_to_move) * region.per_block_move_cost;
  d.predicted_gain =
      (d.current_sweep - d.proposed_sweep) * region.remaining_sweeps;

  d.act = (d.row_slots_changed + d.col_slots_changed) > 0 &&
          d.proposed_sweep < (1.0 - kRebalanceMinGain) * d.current_sweep &&
          d.predicted_gain > kRebalanceCostThreshold * d.migration_cost;
  return d;
}

CycleTimeGrid estimated_rate_grid(const std::vector<CycleEstimate>& estimates,
                                  const CycleTimeGrid& fallback, ObsOp op,
                                  std::uint64_t min_samples) {
  std::vector<double> t(fallback.rows() * fallback.cols());
  for (std::size_t i = 0; i < fallback.rows(); ++i)
    for (std::size_t j = 0; j < fallback.cols(); ++j)
      t[i * fallback.cols() + j] = fallback(i, j);
  for (const CycleEstimate& e : estimates) {
    if (e.op != op || e.samples < min_samples || e.proc >= t.size()) continue;
    if (e.seconds_per_unit > 0.0) t[e.proc] = e.seconds_per_unit;
  }
  return CycleTimeGrid(fallback.rows(), fallback.cols(), t);
}

}  // namespace hetgrid
