#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/imbalance.hpp"
#include "sim/online_rebalancer.hpp"

namespace hetgrid {

double SimReport::average_utilization() const {
  if (total_time <= 0.0 || busy.empty()) return 0.0;
  double acc = 0.0;
  for (double b : busy) acc += b / total_time;
  return acc / static_cast<double>(busy.size());
}

double SimReport::slowdown_vs_perfect() const {
  if (perfect_compute_bound <= 0.0) return 1.0;
  return total_time / perfect_compute_bound;
}

namespace {

// Ring-broadcast phases: combining per-line costs under a topology, and
// emitting the matching trace spans into an optional TraceSink.

/// Combines per-line broadcast costs according to the topology: on
/// Ethernet every transmission serializes across the machine; on a
/// switched network the lines proceed in parallel.
double combine_broadcasts(const NetworkModel& net,
                          const std::vector<double>& line_costs) {
  double total = 0.0, worst = 0.0;
  for (double c : line_costs) {
    total += c;
    worst = std::max(worst, c);
  }
  return net.topology == Topology::kEthernet ? total : worst;
}

/// Emits one broadcast span per processor of each line with nonzero cost.
/// On Ethernet the lines serialize across the shared medium (matching
/// combine_broadcasts); on a switched network every line starts at
/// `start`. `line_blocks[line]` is the panel-block count travelling on
/// that line.
void emit_broadcast_spans(TraceSink* sink, const NetworkModel& net,
                          const std::vector<double>& line_costs,
                          const std::vector<std::size_t>& line_blocks,
                          bool lines_are_rows, std::size_t p, std::size_t q,
                          double start, std::size_t step, const char* name) {
  if (sink == nullptr) return;
  double offset = 0.0;
  for (std::size_t line = 0; line < line_costs.size(); ++line) {
    const double cost = line_costs[line];
    if (cost > 0.0) {
      const double line_start =
          net.topology == Topology::kEthernet ? start + offset : start;
      const std::size_t span = lines_are_rows ? q : p;
      for (std::size_t m = 0; m < span; ++m) {
        const std::size_t proc =
            lines_are_rows ? line * q + m : m * q + line;
        trace_span(sink, TraceEventKind::kBroadcast, proc, line_start, cost,
                   step, name, static_cast<double>(line_blocks[line]));
      }
    }
    offset += cost;
  }
}

// Per-run state shared by the four kernels: the report under construction,
// the step origin of the trace timeline, and the run's OnlineRebalancer
// (live owners, traced rates, estimator feed and boundary re-solve). With
// rebalancing off and an empty trace every hook reduces exactly to the
// paper's static arithmetic, which the golden fingerprints in
// tests/test_sim.cpp pin.
struct SimState {
  TraceSink* sink;
  RunObservation* obs;  // installed observation, fetched once
  std::size_t p, q;
  OnlineRebalancer reb;
  SimReport rep;
  double now = 0.0;  // start of the current step on the trace timeline

  SimState(const Machine& m, const Distribution2D& d, std::size_t nb,
           const RuntimeOptions& o, TraceSink* s, const char* kernel)
      : sink(s),
        obs(installed_observation()),
        p(m.grid.rows()),
        q(m.grid.cols()),
        reb(m, d, o, nb, nb, obs) {
    m.net.validate();
    HG_CHECK(p == d.grid_rows() && q == d.grid_cols(),
             "machine grid " << p << "x" << q
                             << " does not match distribution grid "
                             << d.grid_rows() << "x" << d.grid_cols());
    HG_CHECK(nb > 0, "matrix must have at least one block");
    rep.kernel = kernel;
    rep.distribution = d.name();
    rep.busy.assign(p * q, 0.0);
  }

  ProcCoord owner(std::size_t bi, std::size_t bj) const {
    return reb.owner(bi, bj);
  }

  /// Effective cycle-time of processor (gi, gj) at step `k`.
  double rate(std::size_t gi, std::size_t gj, std::size_t k) const {
    return reb.cycle_time(gi * q + gj, k);
  }

  /// Aggregate speed sum_ij 1/rate at step `k` — the denominator of the
  /// perfectly balanced bound under the traced rates.
  double capacity(std::size_t k) const {
    double cap = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj) cap += 1.0 / rate(gi, gj, k);
    return cap;
  }

  /// Books `seconds` of `op` work (`units` of it in cycle-time-free block
  /// updates) on processor (gi, gj) at step `k`: busy time, a compute span
  /// starting at `start`, and the estimator samples.
  void charge(std::size_t gi, std::size_t gj, ObsOp op, double units,
              double seconds, std::size_t k, double start, const char* name) {
    const std::size_t id = gi * q + gj;
    rep.busy[id] += seconds;
    if (seconds <= 0.0) return;
    trace_span(sink, TraceEventKind::kComputeBlock, id, start, seconds, k,
               name);
    reb.sample(id, op, units, seconds, k);
  }

  /// One boundary rebalance over `region` (absolute block coordinates):
  /// counts the re-solve and, when it acts, records the event and sets
  /// `migration` to the bill charged to this step's communication time.
  /// Returns whether the owners changed.
  bool boundary(std::size_t k, const RebalanceRegion& region,
                double& migration) {
    const std::optional<RebalanceDecision> d = reb.replan(k, region);
    if (!d) return false;
    rep.resolves += 1;
    if (!d->act) return false;
    rep.migrations += 1;
    rep.blocks_moved += d->blocks_to_move;
    rep.events.push_back({k, d->current_sweep, d->proposed_sweep,
                          d->migration_cost, d->blocks_to_move});
    if (obs != nullptr) obs->rebalances.push_back(rep.events.back());
    migration = d->migration_cost;
    return true;
  }

  /// Closes one step: books its record and its share of the perfect
  /// bound, emits the machine-lane phase marker, and advances the step
  /// origin. A migration bill sits at the start of the step, inside
  /// `s.comm`, with no span of its own.
  void close_step(const StepRecord& s, double perfect) {
    rep.compute_time += s.panel + s.row + s.update;
    rep.comm_time += s.comm;
    rep.steps.push_back(s);
    rep.perfect_compute_bound += perfect;
    trace_span(sink, TraceEventKind::kPhase, kMachineLane, now, s.total(),
               s.step, "step");
    now += s.total();
  }

  SimReport finish() {
    rep.total_time = rep.compute_time + rep.comm_time;
    return std::move(rep);
  }
};

}  // namespace

SimReport simulate_mmm(const Machine& machine, const Distribution2D& dist,
                       std::size_t nb, const KernelCosts& costs,
                       TraceSink* sink, const RuntimeOptions& opts) {
  SimState st(machine, dist, nb, opts, sink, "mmm");
  const std::size_t p = st.p, q = st.q;
  const double step_volume =
      static_cast<double>(nb) * static_cast<double>(nb) * costs.update;

  // Ownership of the nb x nb block matrix. The whole C matrix updates at
  // every step, so the counts change only when a rebalance remaps lines.
  std::vector<std::size_t> owned(p * q), a_rows(p), b_cols(q);
  std::vector<double> h_costs(p), v_costs(q);

  for (std::size_t k = 0; k < nb; ++k) {
    // The priced region is the whole matrix, and one owner change drags
    // A, B and C blocks along.
    double migration = 0.0;
    const bool remapped = st.boundary(
        k,
        RebalanceRegion{0, nb, 0, nb, false, static_cast<double>(nb - k),
                        0.0, 3.0},
        migration);
    if (k == 0 || remapped) {
      std::fill(owned.begin(), owned.end(), 0);
      for (std::size_t i = 0; i < nb; ++i)
        for (std::size_t j = 0; j < nb; ++j) {
          const ProcCoord o = st.owner(i, j);
          owned[o.row * q + o.col] += 1;
        }
    }

    // Broadcast counts are computed per step: the A column panel at step k
    // is block column k, whose row ownership may depend on k for
    // misaligned distributions (Kalinov–Lastovetsky).
    std::fill(a_rows.begin(), a_rows.end(), 0);
    std::fill(b_cols.begin(), b_cols.end(), 0);
    for (std::size_t i = 0; i < nb; ++i) a_rows[st.owner(i, k).row] += 1;
    for (std::size_t j = 0; j < nb; ++j) b_cols[st.owner(k, j).col] += 1;
    for (std::size_t i = 0; i < p; ++i)
      h_costs[i] = machine.net.broadcast_cost(a_rows[i], q);
    for (std::size_t j = 0; j < q; ++j)
      v_costs[j] = machine.net.broadcast_cost(b_cols[j], p);
    const double h_comb = combine_broadcasts(machine.net, h_costs);
    const double v_comb = combine_broadcasts(machine.net, v_costs);
    const double bcast = h_comb + v_comb;
    const double start = st.now + migration;
    emit_broadcast_spans(sink, machine.net, h_costs, a_rows, true, p, q,
                         start, k, "a-panel");
    emit_broadcast_spans(sink, machine.net, v_costs, b_cols, false, p, q,
                         start + h_comb, k, "b-panel");

    double compute_step = 0.0;
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < q; ++j) {
        const double blocks = static_cast<double>(owned[i * q + j]);
        const double work = blocks * st.rate(i, j, k) * costs.update;
        compute_step = std::max(compute_step, work);
        st.charge(i, j, ObsOp::kUpdate, blocks * costs.update, work, k,
                  start + bcast, "update");
      }
    st.close_step({k, 0.0, 0.0, compute_step, bcast + migration},
                  step_volume / st.capacity(k));
  }
  return st.finish();
}

namespace {

struct FactorizationWeights {
  double panel;   // per block of the current column panel
  double row;     // per block of the current row panel (trsm / reflector)
  double update;  // per block of the trailing submatrix
  const char* kernel;
};

SimReport simulate_factorization(const Machine& machine,
                                 const Distribution2D& dist, std::size_t nb,
                                 const FactorizationWeights& w,
                                 TraceSink* sink, const RuntimeOptions& opts) {
  SimState st(machine, dist, nb, opts, sink, w.kernel);
  const std::size_t p = st.p, q = st.q;

  // panel_rows doubles as the L broadcast's per-row block count, row_cols
  // as the U broadcast's per-column one.
  std::vector<std::size_t> trailing(p * q), panel_rows(p), row_cols(q);
  std::vector<double> line_costs;

  for (std::size_t k = 0; k < nb; ++k) {
    // Rebalance the trailing submatrix [k, nb)^2; the shrinking trailing
    // sweep repays migration over roughly (nb - k) / 3 full sweeps.
    double migration = 0.0;
    st.boundary(k,
                RebalanceRegion{k, nb, k, nb, false,
                                static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
                migration);
    const double start = st.now + migration;
    const ProcCoord diag = st.owner(k, k);

    // --- Panel factorization: column k, rows k..nb-1, done by the owner
    // grid column in parallel across its grid rows.
    std::fill(panel_rows.begin(), panel_rows.end(), 0);
    for (std::size_t i = k; i < nb; ++i)
      panel_rows[st.owner(i, k).row] += 1;
    double panel_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi) {
      const double blocks = static_cast<double>(panel_rows[gi]);
      const double tt = blocks * st.rate(gi, diag.col, k) * w.panel;
      panel_time = std::max(panel_time, tt);
      st.charge(gi, diag.col, ObsOp::kPanel, blocks * w.panel, tt, k, start,
                "panel");
    }

    // --- Horizontal broadcast of the L panel (one ring per grid row).
    line_costs.clear();
    for (std::size_t gi = 0; gi < p; ++gi)
      line_costs.push_back(machine.net.broadcast_cost(panel_rows[gi], q));
    const double l_bcast = combine_broadcasts(machine.net, line_costs);
    emit_broadcast_spans(sink, machine.net, line_costs, panel_rows, true, p,
                         q, start + panel_time, k, "l-bcast");

    // --- Row panel: row k, columns k+1..nb-1, solved by the owner grid row.
    std::fill(row_cols.begin(), row_cols.end(), 0);
    for (std::size_t j = k + 1; j < nb; ++j)
      row_cols[st.owner(k, j).col] += 1;
    double row_time = 0.0;
    for (std::size_t gj = 0; gj < q; ++gj) {
      const double blocks = static_cast<double>(row_cols[gj]);
      const double tt = blocks * st.rate(diag.row, gj, k) * w.row;
      row_time = std::max(row_time, tt);
      st.charge(diag.row, gj, ObsOp::kSolve, blocks * w.row, tt, k,
                start + panel_time + l_bcast, "row");
    }

    // --- Vertical broadcast of the U row panel (one ring per grid column).
    line_costs.clear();
    for (std::size_t gj = 0; gj < q; ++gj)
      line_costs.push_back(machine.net.broadcast_cost(row_cols[gj], p));
    const double u_bcast = combine_broadcasts(machine.net, line_costs);
    emit_broadcast_spans(sink, machine.net, line_costs, row_cols, false, p, q,
                         start + panel_time + l_bcast + row_time, k,
                         "u-bcast");

    // --- Trailing update of blocks (I > k, J > k).
    std::fill(trailing.begin(), trailing.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i)
      for (std::size_t j = k + 1; j < nb; ++j) {
        const ProcCoord o = st.owner(i, j);
        trailing[o.row * q + o.col] += 1;
      }
    const double update_start =
        start + panel_time + l_bcast + row_time + u_bcast;
    double update_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj) {
        const double blocks = static_cast<double>(trailing[gi * q + gj]);
        const double tt = blocks * st.rate(gi, gj, k) * w.update;
        update_time = std::max(update_time, tt);
        st.charge(gi, gj, ObsOp::kUpdate, blocks * w.update, tt, k,
                  update_start, "update");
      }

    const double panel_vol = static_cast<double>(nb - k) * w.panel;
    const double row_vol = static_cast<double>(nb - k - 1) * w.row;
    const double upd_vol = static_cast<double>(nb - k - 1) *
                           static_cast<double>(nb - k - 1) * w.update;
    st.close_step(
        {k, panel_time, row_time, update_time, l_bcast + u_bcast + migration},
        (panel_vol + row_vol + upd_vol) / st.capacity(k));
  }
  return st.finish();
}

}  // namespace

SimReport simulate_cholesky(const Machine& machine,
                            const Distribution2D& dist, std::size_t nb,
                            const KernelCosts& costs, TraceSink* sink,
                            const RuntimeOptions& opts) {
  SimState st(machine, dist, nb, opts, sink, "cholesky");
  const std::size_t p = st.p, q = st.q;

  std::vector<std::size_t> panel_rows(p), trailing(p * q), l_rows(p),
      l_cols(q);
  std::vector<double> line_costs;

  for (std::size_t k = 0; k < nb; ++k) {
    // Rebalance the lower trailing triangle (Cholesky touches only J <= I).
    double migration = 0.0;
    st.boundary(k,
                RebalanceRegion{k, nb, k, nb, true,
                                static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
                migration);
    const double start = st.now + migration;
    const ProcCoord diag = st.owner(k, k);

    // Panel phase: factor the diagonal block and solve the sub-diagonal
    // panel inside the owner grid column.
    std::fill(panel_rows.begin(), panel_rows.end(), 0);
    for (std::size_t i = k; i < nb; ++i)
      panel_rows[st.owner(i, k).row] += 1;
    double panel_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi) {
      const double blocks = static_cast<double>(panel_rows[gi]);
      const double tt = blocks * st.rate(gi, diag.col, k) * costs.chol_factor;
      panel_time = std::max(panel_time, tt);
      st.charge(gi, diag.col, ObsOp::kPanel, blocks * costs.chol_factor, tt,
                k, start, "panel");
    }

    // The L21 panel travels along grid rows (as the left GEMM operand) and
    // along grid columns (transposed, as the right operand).
    std::fill(l_rows.begin(), l_rows.end(), 0);
    std::fill(l_cols.begin(), l_cols.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i) {
      l_rows[st.owner(i, k).row] += 1;
      // Block (i, k) transposed is needed by the grid column owning block
      // column i of the trailing matrix.
      l_cols[st.owner(k, i).col] += 1;
    }
    line_costs.clear();
    for (std::size_t gi = 0; gi < p; ++gi)
      line_costs.push_back(machine.net.broadcast_cost(l_rows[gi], q));
    const double row_bcast = combine_broadcasts(machine.net, line_costs);
    emit_broadcast_spans(sink, machine.net, line_costs, l_rows, true, p, q,
                         start + panel_time, k, "l-bcast-row");
    line_costs.clear();
    for (std::size_t gj = 0; gj < q; ++gj)
      line_costs.push_back(machine.net.broadcast_cost(l_cols[gj], p));
    const double col_bcast = combine_broadcasts(machine.net, line_costs);
    emit_broadcast_spans(sink, machine.net, line_costs, l_cols, false, p, q,
                         start + panel_time + row_bcast, k, "l-bcast-col");
    const double bcast = row_bcast + col_bcast;

    // Symmetric trailing update: only lower blocks (I >= J > k).
    std::fill(trailing.begin(), trailing.end(), 0);
    for (std::size_t i = k + 1; i < nb; ++i)
      for (std::size_t j = k + 1; j <= i; ++j) {
        const ProcCoord o = st.owner(i, j);
        trailing[o.row * q + o.col] += 1;
      }
    double update_time = 0.0;
    for (std::size_t gi = 0; gi < p; ++gi)
      for (std::size_t gj = 0; gj < q; ++gj) {
        const double blocks = static_cast<double>(trailing[gi * q + gj]);
        const double tt = blocks * st.rate(gi, gj, k) * costs.update;
        update_time = std::max(update_time, tt);
        st.charge(gi, gj, ObsOp::kUpdate, blocks * costs.update, tt, k,
                  start + panel_time + bcast, "update");
      }

    const double m = static_cast<double>(nb - k - 1);
    st.close_step({k, panel_time, 0.0, update_time, bcast + migration},
                  (static_cast<double>(nb - k) * costs.chol_factor +
                   m * (m + 1.0) / 2.0 * costs.update) /
                      st.capacity(k));
  }
  return st.finish();
}

SimReport simulate_lu(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs,
                      TraceSink* sink, const RuntimeOptions& opts) {
  return simulate_factorization(
      machine, dist, nb, {costs.panel_factor, costs.trsm, costs.update, "lu"},
      sink, opts);
}

SimReport simulate_qr(const Machine& machine, const Distribution2D& dist,
                      std::size_t nb, const KernelCosts& costs,
                      TraceSink* sink, const RuntimeOptions& opts) {
  return simulate_factorization(
      machine, dist, nb,
      {costs.qr_factor, costs.qr_update, costs.qr_update, "qr"}, sink, opts);
}

}  // namespace hetgrid
