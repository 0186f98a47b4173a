// Shared helpers for the figure/table regeneration harnesses.
//
// Every bench binary is a standalone executable with --flags (see util/cli)
// that prints an aligned table to stdout — the same rows/series the paper's
// corresponding figure or table reports — plus an optional CSV block for
// plotting. Benchmarks are deterministic for a fixed --seed.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/heuristic.hpp"
#include "matrix/gemm.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hetgrid::bench {

/// Prints the standard provenance header every harness emits.
inline void print_header(const std::string& title, const Cli& cli) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "flags: " << cli.describe() << "\n\n";
}

/// Emits the table and, if requested, a trailing CSV copy.
inline void emit(const Table& table, const Cli& cli) {
  table.print(std::cout);
  if (cli.get_bool("csv")) {
    std::cout << "\n[csv]\n";
    table.print_csv(std::cout);
  }
  std::cout << std::endl;
}

/// Machine-readable bench output: one JSON object carrying the bench name,
/// the exact flag string it ran with, an `env` block describing the
/// machine/runtime configuration the numbers depend on, and a flat
/// `results` array — enough for plotting scripts and CI trend tracking
/// without a JSON dependency. Numbers are written with 17 significant
/// digits so doubles round-trip.
///
/// The env block always carries the detected gemm kernel
/// (gemm_kernel_name()), the thread configuration, and the scheduler, so
/// two reports can be checked for comparability before their numbers are
/// compared (bench_compare fails on an env mismatch — a scalar-kernel run
/// is not a regression baseline for an avx2 one). `threads` defaults to
/// the --threads flag when the bench declares one and `scheduler` to
/// "none"; benches whose configuration lives elsewhere override via env().
class JsonReport {
 public:
  JsonReport(std::string bench, const Cli& cli)
      : bench_(std::move(bench)), flags_(cli.describe()) {
    env_.emplace_back("gemm_kernel", gemm_kernel_name());
    env_.emplace_back("threads",
                      cli.has("threads") ? cli.get_string("threads") : "1");
    env_.emplace_back("scheduler", "none");
  }

  /// Overrides (or adds) one env entry; keys keep first-seen order.
  void env(const std::string& key, const std::string& value) {
    for (auto& [k, v] : env_)
      if (k == key) {
        v = value;
        return;
      }
    env_.emplace_back(key, value);
  }

  class Record {
   public:
    Record& field(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, quote(value));
      return *this;
    }
    Record& field(const std::string& key, const char* value) {
      return field(key, std::string(value));
    }
    Record& field(const std::string& key, double value) {
      std::ostringstream os;
      os.precision(17);
      os << value;
      fields_.emplace_back(key, os.str());
      return *this;
    }

   private:
    friend class JsonReport;
    static std::string quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              char buf[8];
              std::snprintf(buf, sizeof buf, "\\u%04x", c);
              out += buf;
            } else {
              out += c;
            }
        }
      }
      out += "\"";
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Appends one result record; fill it with chained field() calls.
  Record& add() {
    records_.emplace_back();
    return records_.back();
  }

  void write(std::ostream& os) const {
    os << "{\n  \"bench\": " << Record::quote(bench_)
       << ",\n  \"flags\": " << Record::quote(flags_) << ",\n  \"env\": {";
    for (std::size_t i = 0; i < env_.size(); ++i) {
      if (i > 0) os << ", ";
      os << Record::quote(env_[i].first) << ": "
         << Record::quote(env_[i].second);
    }
    os << "},\n  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {";
      const auto& fields = records_[i].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) os << ", ";
        os << Record::quote(fields[f].first) << ": " << fields[f].second;
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
  }

  /// Writes to `path` (no-op on empty path) and announces the file.
  void write_file(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot open " << path << " for writing\n";
      return;
    }
    write(os);
    std::cout << "wrote " << records_.size() << " records to " << path
              << "\n";
  }

 private:
  std::string bench_;
  std::string flags_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<Record> records_;
};

/// Statistics of the heuristic over `trials` random n x n pools with
/// cycle-times uniform in (0, 1] (the paper's Section 4.4.4 workload).
struct HeuristicSweepPoint {
  RunningStats avg_workload_first;   // mean(B) after the first step
  RunningStats avg_workload_final;   // mean(B) after convergence (Fig 6)
  RunningStats tau;                  // obj gain ratio - 1 (Fig 7)
  RunningStats iterations;           // steps to convergence (Fig 8)
  RunningStats converged;            // fraction reaching a fixed point
};

inline HeuristicSweepPoint run_heuristic_sweep(std::size_t n, int trials,
                                               Rng& rng) {
  HeuristicSweepPoint point;
  for (int t = 0; t < trials; ++t) {
    const HeuristicResult res =
        solve_heuristic(n, n, rng.cycle_times(n * n));
    point.avg_workload_first.add(res.first().avg_workload);
    point.avg_workload_final.add(res.final().avg_workload);
    point.tau.add(res.refinement_gain());
    point.iterations.add(static_cast<double>(res.iterations()));
    point.converged.add(res.converged ? 1.0 : 0.0);
  }
  return point;
}

}  // namespace hetgrid::bench

#include <memory>
#include <vector>

#include "core/arrangement.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "sim/simulator.hpp"

namespace hetgrid::bench {

/// One competing data-distribution strategy, ready to simulate: the grid
/// arrangement it chose plus the block distribution it induces.
struct Strategy {
  std::string name;
  CycleTimeGrid grid;
  std::unique_ptr<Distribution2D> dist;
};

/// Builds the paper's competitors for one pool of p*q cycle-times:
///  - block-cyclic: ScaLAPACK's homogeneous distribution (the strawman the
///    abstract says runs at the slowest processor's speed);
///  - kalinov-lastovetsky: per-column 1D balancing, perfect balance but no
///    grid communication pattern;
///  - heuristic: this paper's SVD + refinement solver with a grid panel;
///  - exact: the spanning-tree optimum over non-decreasing arrangements
///    (only when the grid is small enough; `include_exact`).
/// Panel periods are `scale*p` x `scale*q`.
inline std::vector<Strategy> build_strategies(std::size_t p, std::size_t q,
                                              const std::vector<double>& pool,
                                              std::size_t scale,
                                              bool include_exact,
                                              PanelOrder col_order) {
  std::vector<Strategy> out;
  const CycleTimeGrid sorted = CycleTimeGrid::sorted_row_major(p, q, pool);

  out.push_back({"block-cyclic", sorted,
                 std::make_unique<PanelDistribution>(
                     PanelDistribution::block_cyclic(p, q))});

  out.push_back({"kalinov-lastovetsky", sorted,
                 std::make_unique<KalinovLastovetskyDistribution>(
                     sorted, scale * p, scale * q)});

  const HeuristicResult h = solve_heuristic(p, q, pool);
  out.push_back({"heuristic", h.final().grid,
                 std::make_unique<PanelDistribution>(
                     PanelDistribution::from_allocation(
                         h.final().grid, h.final().alloc, scale * p,
                         scale * q, PanelOrder::kContiguous, col_order,
                         "heuristic"))});

  if (include_exact) {
    const OptimalArrangement opt = solve_optimal_arrangement(p, q, pool);
    out.push_back({"exact", opt.grid,
                   std::make_unique<PanelDistribution>(
                       PanelDistribution::from_allocation(
                           opt.grid, opt.solution.alloc, scale * p,
                           scale * q, PanelOrder::kContiguous, col_order,
                           "exact"))});
  }
  return out;
}

/// Parses --network=free|switched|ethernet into a model.
inline NetworkModel parse_network(const std::string& name) {
  if (name == "free") return NetworkModel::free();
  if (name == "switched")
    return {Topology::kSwitched, 1.0e-4, 2.0e-4, true};
  if (name == "ethernet")
    return {Topology::kEthernet, 1.0e-4, 2.0e-4, true};
  HG_CHECK(false, "unknown --network value: " << name);
}

}  // namespace hetgrid::bench
