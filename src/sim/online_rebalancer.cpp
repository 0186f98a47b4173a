#include "sim/online_rebalancer.hpp"

#include <algorithm>

#include "obs/imbalance.hpp"

namespace hetgrid {

OnlineRebalancer::OnlineRebalancer(const Machine& machine,
                                   const Distribution2D& dist,
                                   const RuntimeOptions& opts,
                                   std::size_t nbr, std::size_t nbc,
                                   RunObservation* obs)
    : machine_(machine),
      dist_(dist),
      opts_(opts),
      obs_(obs),
      on_(opts.rebalance == RuntimeOptions::Rebalance::kPanel),
      est_(opts.estimator) {
  if (!on_) return;
  HG_CHECK(
      neighbor_census(dist).aligned,
      "rebalance=panel requires an aligned (grid-pattern) distribution");
  row_of_.resize(nbr);
  col_of_.resize(nbc);
  for (std::size_t bi = 0; bi < nbr; ++bi) row_of_[bi] = dist.owner(bi, 0).row;
  for (std::size_t bj = 0; bj < nbc; ++bj) col_of_[bj] = dist.owner(0, bj).col;
}

void OnlineRebalancer::sample(std::size_t id, ObsOp op, double units,
                              double seconds, std::size_t step) {
  if (on_) est_.sample(id, op, units, seconds, step);
  if (obs_ != nullptr) obs_->estimator.sample(id, op, units, seconds, step);
}

std::optional<RebalanceDecision> OnlineRebalancer::replan(
    std::size_t k, RebalanceRegion region) {
  if (!on_ || k == 0) return std::nullopt;
  if (region.row_hi - region.row_lo < machine_.grid.rows() ||
      region.col_hi - region.col_lo < machine_.grid.cols())
    return std::nullopt;
  region.per_block_move_cost =
      machine_.net.latency + machine_.net.block_transfer;
  const CycleTimeGrid rates =
      estimated_rate_grid(est_.estimates(), machine_.grid, ObsOp::kUpdate,
                          est_.options().min_samples);
  // Plan over the trailing sub-maps only (region shifted to the origin),
  // so every rounded slot lands on a line that still has work;
  // row_lo == col_lo keeps lower_only triangles aligned.
  const auto row_lo = static_cast<std::ptrdiff_t>(region.row_lo);
  const auto col_lo = static_cast<std::ptrdiff_t>(region.col_lo);
  const std::vector<std::size_t> rows(
      row_of_.begin() + row_lo,
      row_of_.begin() + static_cast<std::ptrdiff_t>(region.row_hi));
  const std::vector<std::size_t> cols(
      col_of_.begin() + col_lo,
      col_of_.begin() + static_cast<std::ptrdiff_t>(region.col_hi));
  RebalanceRegion local = region;
  local.row_hi -= local.row_lo;
  local.col_hi -= local.col_lo;
  local.row_lo = 0;
  local.col_lo = 0;
  RebalanceDecision d = plan_rebalance(rates, rows, cols, local);
  if (d.act) {
    std::copy(d.row_map.begin(), d.row_map.end(), row_of_.begin() + row_lo);
    std::copy(d.col_map.begin(), d.col_map.end(), col_of_.begin() + col_lo);
  }
  return d;
}

}  // namespace hetgrid
