// The heterogeneous block-cyclic distribution of Kalinov & Lastovetsky
// (HPCN'99), the baseline the paper compares its grid-constrained scheme
// against (Section 3.1.2, Figure 3).
//
// K–L relaxes the grid communication pattern: each processor *column*
// balances matrix rows among its own processors independently (1D scheme),
// and matrix columns are balanced across processor columns by their
// aggregate speeds. Load balance is perfect in the rational limit, but
// processors can end up with several west/north neighbors, so broadcast
// cost is no longer bounded by the grid degree.
#pragma once

#include "core/cycle_time_grid.hpp"
#include "dist/distribution.hpp"

namespace hetgrid {

class KalinovLastovetskyDistribution final : public Distribution2D {
 public:
  /// `row_periods[j]` is the row-slot period used inside grid column j
  /// (the paper's example uses 4 for the {1,3} column and 7 for the {2,5}
  /// column); `col_period` is the number of column slots distributed across
  /// grid columns (61 in the example).
  KalinovLastovetskyDistribution(const CycleTimeGrid& grid,
                                 std::vector<std::size_t> row_periods,
                                 std::size_t col_period);

  /// Convenience: the same row period in every grid column.
  KalinovLastovetskyDistribution(const CycleTimeGrid& grid,
                                 std::size_t row_period,
                                 std::size_t col_period);

  std::size_t grid_rows() const override { return p_; }
  std::size_t grid_cols() const override { return q_; }
  std::size_t period_rows() const override { return row_period_lcm_; }
  std::size_t period_cols() const override { return col_map_.size(); }

  ProcCoord owner(std::size_t block_row,
                  std::size_t block_col) const override {
    const std::size_t gj = col_map_[block_col % col_map_.size()];
    const auto& rmap = row_maps_[gj];
    return {rmap[block_row % rmap.size()], gj};
  }

  std::string name() const override { return "kalinov-lastovetsky"; }

  const std::vector<std::size_t>& col_map() const { return col_map_; }

  /// Row-slot counts per processor within grid column gj.
  std::vector<std::size_t> row_counts_of_column(std::size_t gj) const;
  /// Column-slot counts per grid column.
  std::vector<std::size_t> col_counts() const;

 private:
  void build(const CycleTimeGrid& grid,
             std::vector<std::size_t> row_periods, std::size_t col_period);

  std::size_t p_ = 0, q_ = 0;
  std::vector<std::vector<std::size_t>> row_maps_;  // one per grid column
  std::vector<std::size_t> col_map_;
  std::size_t row_period_lcm_ = 1;
};

}  // namespace hetgrid
