#include "mp/mp_runtime.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "core/rebalance.hpp"
#include "dist/online_rebalancer.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/qr.hpp"
#include "matrix/trsm.hpp"
#include "mp/block_store.hpp"
#include "mp/virtual_network.hpp"
#include "obs/cycle_estimator.hpp"
#include "obs/imbalance.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/task_graph.hpp"

namespace hetgrid {

double MpReport::average_utilization() const {
  if (makespan <= 0.0 || busy.empty()) return 0.0;
  double acc = 0.0;
  for (double b : busy) acc += b / makespan;
  return acc / static_cast<double>(busy.size());
}

namespace {

std::size_t block_count(std::size_t n, std::size_t block) {
  HG_CHECK(block > 0, "block size must be positive");
  return (n + block - 1) / block;
}
std::size_t block_lo(std::size_t idx, std::size_t block) {
  return idx * block;
}
std::size_t block_len(std::size_t idx, std::size_t block, std::size_t n) {
  return std::min(n - idx * block, block);
}
double vol_frac(std::size_t r, std::size_t c, std::size_t k,
                std::size_t block) {
  const double full = static_cast<double>(block) * static_cast<double>(block) *
                      static_cast<double>(block);
  return static_cast<double>(r) * static_cast<double>(c) *
         static_cast<double>(k) / full;
}

// Task priorities: communication copies first (they unblock whole
// dependency subtrees), then panel-gating work, then solves, then bulk
// trailing updates. Priorities only steer the ready queue — they
// can never reorder dependent work, so results are priority-independent.
constexpr int kPrioComm = 3, kPrioPanel = 2, kPrioSolve = 1, kPrioUpdate = 0;

constexpr std::size_t kTagA = 0, kTagB = 1, kTagC = 2;
// QR-only transients: the larft T factor, the unit-lower diagonal V block,
// per-grid-row partial W accumulators, and the reduced Y = T^T W panels.
constexpr std::size_t kTagT = 3, kTagV = 4, kTagW = 5, kTagY = 6;

// Virtual work that MpContext::gemm_op / solve_op book for one processor,
// turned into one compute span by MpContext::charge.
struct Work {
  double seconds = 0.0;  // summed cycle_time(id) * units of the ops
  double units = 0.0;    // their cycle-time-free flop measure
};

// Shared state for one distributed execution.
//
// Every real floating-point block op is emitted, in canonical host order,
// into a util/task_graph keyed by (processor, block): the block-versioned
// read/write dependencies alone order the work, so step k+1's panel chain
// overlaps step k's trailing updates. Every read-modify-write chain on one
// block serializes in emission order (WAW), so the arithmetic is
// bit-identical to the graph's serial inline mode (one thread) for any
// thread count. The host runs no block math: every factorization is a task
// on its diagonal owner's lane. The host emits, and waits only where a
// factor's outcome steers what it emits next (host_wait: a failed LU or
// Cholesky diagonal factor ends the run, pivoted LU's pivots pick its row
// swaps), at finish(), and to keep emission within kStepWindow steps of
// the workers (set_step). A QR run's host never waits before finish().
//
// Every persistent block stays in the caller's matrix for the whole run:
// scatter binds it in its owner's store, a migration hands that binding to
// the new owner's store (maybe_rebalance), and only transients own
// buffers, so nothing is copied back at the end.
//
// Clocks, busy times, message counters, and trace spans are computed
// exclusively on the host thread and never depend on the execution
// schedule — the MpReport and the trace stream are bitwise equal across
// thread counts.
struct MpContext {
  std::size_t block;
  std::size_t p, q;
  VirtualNetwork net;
  std::vector<BlockStore> store;  // one per processor
  std::vector<double> clock;      // per-processor compute clock
  std::vector<double> busy;
  TraceSink* sink;
  // Installed observation, fetched once (the null-sink contract's single
  // atomic load). When set, compute() feeds the cycle-time estimator and
  // finish() deposits the task graph's records; nothing about the computed
  // results changes either way.
  RunObservation* obs;
  std::size_t step = 0;
  // The run's online rebalancer (doc/rebalance.md): live owner lines,
  // traced cycle-times, estimator feed and boundary re-solve. Its lines
  // factor exactly like an aligned distribution, which ring sources and
  // reduction roots rely on, and a rebalance rewrites only the trailing
  // ones, so finished panels keep their owners.
  OnlineRebalancer reb;
  // Block rows and columns per matrix; a block of matrix tag `which`
  // (A/B/C) is keyed {which * nbr + bi, bj}.
  std::size_t nbr, nbc;
  std::size_t reb_applied = 0, reb_blocks = 0;
  // The step window: when step k starts, the host waits for every task
  // emitted before step k - kStepWindow + 1 and erases the transients step
  // k - kStepWindow landed, so at most kStepWindow steps of copies are
  // live at any thread count. A transient is a block a step lands or
  // creates outside the persistent layout (panel copies, feeder and
  // row-swap copies, QR's T/V0/W/Y).
  static constexpr std::size_t kStepWindow = 2;
  struct Transient {
    std::size_t step, id;
    BlockKey key;
  };
  std::deque<Transient> transients;  // in landing order, so by step
  // Last step that landed each live transient, by key_of(processor, key).
  std::unordered_map<TaskGraph::Key, std::size_t> live;
  std::vector<TaskGraph::TaskId> step_mark;  // first task id of each step
  // Declared last: its destructor waits for in-flight tasks, so on unwind
  // it runs before the stores those tasks' closures reference. Heap-held so
  // the lock and ready queue that workers hammer never share a cache line
  // with the host's emission state (`fused` below).
  std::unique_ptr<TaskGraph> graph;

  /// One run over a `rows` x `cols` block grid (`blk` elements per block
  /// side) of `tags` persistent matrices (A, or A/B/C for MMM).
  MpContext(const Machine& m, const Distribution2D& d, std::size_t blk,
            std::size_t rows, std::size_t cols, std::size_t tags,
            TraceSink* s, const RuntimeOptions& opts)
      : block(blk), p(d.grid_rows()), q(d.grid_cols()),
        net(p * q, m.net, s), store(p * q), clock(p * q, 0.0),
        busy(p * q, 0.0), sink(s), obs(installed_observation()),
        reb(m, d, opts, rows, cols, obs), nbr(rows), nbc(cols) {
    HG_CHECK(p * q <= kMaxProcs, "mp runtime supports at most "
                                     << kMaxProcs << " processors, got "
                                     << p << "x" << q);
    // Each store holds its owned blocks of every matrix plus one row and
    // one column panel of transient copies per step of the window.
    std::vector<std::size_t> owned(p * q, 0);
    for (std::size_t bi = 0; bi < nbr; ++bi)
      for (std::size_t bj = 0; bj < nbc; ++bj) owned[owner_pid(bi, bj)] += tags;
    for (std::size_t id = 0; id < p * q; ++id)
      store[id].reserve(owned[id] + kStepWindow * (nbr + nbc));
    graph = std::make_unique<TaskGraph>(opts.threads);
    if (obs != nullptr) graph->set_observe(true);
  }

  void set_step(std::size_t k) {
    HG_INTERNAL_CHECK(k == step_mark.size(), "mp steps must run in order");
    // The window waits on task ids, so the ops touching the previous
    // step's transients must be tasks below this step's mark.
    if (!transients.empty() && transients.back().step + 1 == k)
      flush_fused();
    step = k;
    net.set_step(k);
    step_mark.push_back(graph->stats().tasks);
    if (k < kStepWindow) return;
    // Not an mp.barriers tick: the host takes no key ownership here.
    metric_count("mp.window_waits", 1);
    {
      ProfScope span("mp.window_wait");
      graph->wait_below(step_mark[k - kStepWindow + 1]);
    }
    const std::size_t retired = k - kStepWindow;
    while (!transients.empty() && transients.front().step == retired) {
      const Transient t = transients.front();
      transients.pop_front();
      const auto it = live.find(key_of(t.id, t.key));
      // Landed again by a later step.
      if (it == live.end() || it->second != retired) continue;
      live.erase(it);
      store[t.id].erase(t.key);
    }
  }

  /// Packs (processor, block) into a task-graph resource key: the
  /// processor id takes the top 12 bits, each block coordinate 26.
  static constexpr std::size_t kMaxProcs = std::size_t{1} << 12;
  TaskGraph::Key key_of(std::size_t id, BlockKey k) const {
    HG_DCHECK(k.row < (std::uint64_t{1} << 26) &&
                  k.col < (std::uint64_t{1} << 26),
              "block coordinates exceed the task-graph key encoding");
    return (static_cast<std::uint64_t>(id) << 52) |
           (static_cast<std::uint64_t>(k.row) << 26) |
           static_cast<std::uint64_t>(k.col);
  }

  // Emission-order op fusion: consecutive ops in the same
  // group — one processor's ops at one priority, or one ring hop's block
  // copies — merge into a single task whose read/write sets are the union
  // of the ops'. The fused ops run in emission order inside one task, and
  // groups register with the scoreboard in emission order (staging holds
  // at most one open group; a new group flushes the previous), so every
  // per-key operation chain is ordered exactly as without fusion and the
  // results stay bit-identical. What changes is granularity: a trailing
  // update is one task per processor instead of one per block, which
  // keeps a worker inside one store's blocks (cache locality) and pays
  // the scheduler's lock once per processor-step instead of once per
  // block. Any host-side wait must flush first — add_task does before the
  // task host_wait waits on, finish does, and set_step does before the
  // window waits on a step's tasks.
  static constexpr std::uint64_t kGroupProc = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kGroupCopy = std::uint64_t{1} << 61;
  struct FusedOps {
    bool active = false;
    std::uint64_t group = 0;
    const char* name = "";
    int priority = 0;
    double weight = 0.0;          // summed virtual cost of the fused ops
    std::uint64_t tag = TaskGraph::kNoTag;  // executing processor
    std::vector<TaskGraph::Key> reads, writes;
    std::vector<std::function<void()>> ops;
  };
  FusedOps fused;

  void flush_fused() {
    if (!fused.active) return;
    auto dedup = [](std::vector<TaskGraph::Key>& keys) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    };
    dedup(fused.reads);
    dedup(fused.writes);
    std::function<void()> body;
    if (fused.ops.size() == 1) {
      body = std::move(fused.ops.front());
    } else {
      body = [ops = std::move(fused.ops)] {
        for (const std::function<void()>& f : ops) f();
      };
    }
    graph->add(fused.name, std::move(fused.reads), std::move(fused.writes),
               std::move(body), fused.priority, fused.weight, fused.tag);
    fused = FusedOps{};
  }

  void stage_op(std::uint64_t group, const char* name, int priority,
                std::vector<TaskGraph::Key> reads,
                std::vector<TaskGraph::Key> writes, std::function<void()> op,
                double weight, std::uint64_t tag) {
    if (fused.active && (fused.group != group || fused.priority != priority))
      flush_fused();
    fused.active = true;
    fused.group = group;
    fused.name = name;
    fused.priority = priority;
    fused.weight += weight;
    fused.tag = tag;
    fused.reads.insert(fused.reads.end(), reads.begin(), reads.end());
    fused.writes.insert(fused.writes.end(), writes.begin(), writes.end());
    fused.ops.push_back(std::move(op));
  }

  /// Queues one zero-weight data op on processor `id` (row swaps, QR's V0
  /// build and W adds), declaring the blocks it reads and writes
  /// (a block that is read-modify-written belongs in `writes` —
  /// the write dependency already serializes it against both the prior
  /// writer and prior readers). Views must be resolved by the caller (on
  /// the host thread) so missing-block errors still surface as clean
  /// PreconditionErrors. The op joins the processor's open fusion group.
  /// `reads` / `writes` are brace lists or any BlockKey container.
  template <class Reads = std::initializer_list<BlockKey>,
            class Writes = std::initializer_list<BlockKey>>
  void add_op(std::size_t id, const char* name, int priority,
              const Reads& reads, const Writes& writes,
              std::function<void()> op) {
    std::vector<TaskGraph::Key> r, w;
    r.reserve(reads.size());
    w.reserve(writes.size());
    for (const BlockKey& k : reads) r.push_back(key_of(id, k));
    for (const BlockKey& k : writes) w.push_back(key_of(id, k));
    stage_op(kGroupProc | id, name, priority, std::move(r), std::move(w),
             std::move(op), 0.0, id);
  }

  // The weighted ops below state each block once: the key that names a
  // dependency also resolves the view the op computes on (on the host, so
  // a missing block throws PreconditionError), and the op's task weight is
  // the very cycle_time(id) * units seconds that `acc` books for charge().

  /// Queues c := alpha * op(a) * op(b) + beta * c on processor `id`'s
  /// blocks `a`, `b` (read) and `c` (written).
  void gemm_op(Work& acc, std::size_t id, int priority, Trans ta, Trans tb,
               double alpha, BlockKey a, BlockKey b, double beta, BlockKey c,
               double units) {
    const ConstMatrixView av = store[id].read(a), bv = store[id].read(b);
    const MatrixView cv = store[id].at(c);
    stage_op(kGroupProc | id, "mp.gemm", priority,
             {key_of(id, a), key_of(id, b)}, {key_of(id, c)},
             [=] { gemm(ta, tb, alpha, av, bv, beta, cv); },
             book(acc, id, units), id);
  }

  /// Queues solve(tri, rhs) on processor `id`, overwriting block `rhs`
  /// with its solution against the triangular block `tri`.
  void solve_op(Work& acc, std::size_t id,
                void (*solve)(const ConstMatrixView&, MatrixView),
                BlockKey tri, BlockKey rhs, double units) {
    const ConstMatrixView tv = store[id].read(tri);
    const MatrixView rv = store[id].at(rhs);
    stage_op(kGroupProc | id, "mp.trsm", kPrioSolve, {key_of(id, tri)},
             {key_of(id, rhs)}, [=] { solve(tv, rv); },
             book(acc, id, units), id);
  }

  /// Queues the factorization `fn` on processor `id` as an mp.panel task
  /// of its own at panel priority, writing `writes` and weighing `weight`
  /// virtual seconds, and returns its id: the open fusion group goes to
  /// the graph first and nothing fuses into this task, so it waits for no
  /// op that happens to share its group. Every factorization is one
  /// (diagonal_phase, panel_task).
  TaskGraph::TaskId add_task(std::size_t id,
                             const std::vector<BlockKey>& writes,
                             std::function<void()> fn, double weight) {
    flush_fused();
    std::vector<TaskGraph::Key> w;
    w.reserve(writes.size());
    for (const BlockKey& k : writes) w.push_back(key_of(id, k));
    return graph->add("mp.panel", {}, std::move(w), std::move(fn), kPrioPanel,
                      weight, id);
  }

  /// Adds `units` of work on `id` to `acc`; returns its seconds.
  double book(Work& acc, std::size_t id, double units) const {
    const double seconds = cycle_time(id) * units;
    acc.seconds += seconds;
    acc.units += units;
    return seconds;
  }

  /// Blocks the host until task `t` (one add_task queued) has finished, so
  /// that the host can read what it computed. Every other task keeps
  /// running: a factor task waits only for the ops on its own blocks, so
  /// the panel of step k+1 still overlaps step k's trailing updates. The
  /// "mp.barriers" counter counts these host synchronization points (plus
  /// finish()), on the host thread, so it is deterministic for any thread
  /// count.
  void host_wait(TaskGraph::TaskId t) {
    ProfScope span("mp.host_sync");
    metric_count("mp.barriers", 1);
    graph->wait(t);
  }

  /// Final synchronization: every queued op completes. Every kernel ends
  /// with it, so every write to the caller's matrices lands before the run
  /// returns; the last steps' transients die with the stores.
  void finish() {
    ProfScope span("mp.finish");
    flush_fused();
    metric_count("mp.barriers", 1);
    graph->wait_all();
    if (obs != nullptr) obs->tasks = graph->records();
  }

  /// Makes (id, key) a transient of the current step: set_step erases it
  /// kStepWindow steps from now unless a later step lands it again.
  void land(std::size_t id, BlockKey key) {
    const auto [it, fresh] = live.try_emplace(key_of(id, key), step);
    if (!fresh && it->second == step) return;
    it->second = step;
    transients.push_back(Transient{step, id, key});
  }

  /// Puts a block the current step creates outside the persistent layout.
  void put_transient(std::size_t id, BlockKey key, Matrix m) {
    store[id].put(key, std::move(m));
    land(id, key);
  }

  std::size_t pid(std::size_t gi, std::size_t gj) const {
    return gi * q + gj;
  }
  /// Live owner of block (bi, bj). Kernels only consult this for blocks
  /// at or beyond the current step, where the live lines are always
  /// current: a finished block whose line a rebalance rewrites stays bound
  /// where it was, and nothing reads it there again.
  ProcCoord owner(std::size_t bi, std::size_t bj) const {
    return reb.owner(bi, bj);
  }
  std::size_t owner_pid(std::size_t bi, std::size_t bj) const {
    const ProcCoord o = owner(bi, bj);
    return pid(o.row, o.col);
  }
  double cycle_time(std::size_t id) const { return reb.cycle_time(id, step); }

  /// One matrix's trailing sub-rectangle to migrate when a rebalance acts.
  struct MigrateSet {
    std::size_t which;
    std::size_t row_lo, row_hi, col_lo, col_hi;
    bool lower_only;
  };

  /// The panel-boundary rebalance hook: when the rebalancer's re-solve
  /// acts, migrates every block of `sets` whose owner changed. A migration
  /// hands the block's binding to the new owner's store, with no copy, and
  /// queues one zero-weight mp.move task at kPrioComm that writes the
  /// block at both processors: the graph then orders the new owner's ops
  /// on that caller memory after the old owner's pending reads and writes.
  /// In virtual time the transfer is priced as a message, and the
  /// destination clock waits for it. Everything here runs on the host
  /// thread as a pure function of the boundary snapshot, so the migration
  /// schedule is bit-identical across thread counts.
  void maybe_rebalance(std::size_t k, const RebalanceRegion& region,
                       const std::vector<MigrateSet>& sets) {
    if (!reb.on()) return;
    // Every block of `sets` is bound at its owner under the lines as they
    // stand before this re-solve: each earlier re-solve's sets covered
    // this one's, so the block moved with every owner change.
    std::vector<std::size_t> row_was(nbr), col_was(nbc);
    for (std::size_t bi = 0; bi < nbr; ++bi) row_was[bi] = owner(bi, 0).row;
    for (std::size_t bj = 0; bj < nbc; ++bj) col_was[bj] = owner(0, bj).col;
    const std::optional<RebalanceDecision> d = reb.replan(k, region);
    if (!d) return;
    metric_count("rebalance.resolves", 1);
    if (!d->act) return;

    std::vector<double> arrive(p * q, 0.0);
    std::size_t moved = 0;
    for (const MigrateSet& s : sets) {
      for (std::size_t bi = s.row_lo; bi < s.row_hi; ++bi) {
        for (std::size_t bj = s.col_lo; bj < s.col_hi; ++bj) {
          if (s.lower_only && bj > bi) continue;
          const std::size_t cur = pid(row_was[bi], col_was[bj]);
          const std::size_t dst = owner_pid(bi, bj);
          if (cur == dst) continue;
          const BlockKey key{s.which * nbr + bi, bj};
          const double arrival = net.transfer(cur, dst, 1, clock[cur]);
          // Flush first: the old owner's last ops on the block may still
          // sit in the open fusion group, and the move must depend on them.
          flush_fused();
          store[cur].hand_over(key, store[dst]);
          graph->add("mp.move", {}, {key_of(cur, key), key_of(dst, key)},
                     [] {}, kPrioComm, 0.0, dst);
          arrive[dst] = std::max(arrive[dst], arrival);
          ++moved;
        }
      }
    }
    // The destinations cannot compute on migrated blocks before they land.
    for (std::size_t id = 0; id < p * q; ++id)
      clock[id] = std::max(clock[id], arrive[id]);

    reb_applied += 1;
    reb_blocks += moved;
    metric_count("rebalance.migrations", 1);
    metric_count("rebalance.blocks_moved", moved);
    metric_count("rebalance.bytes_moved", moved * block * block * 8);
    if (obs != nullptr)
      obs->rebalances.push_back(RebalanceEvent{k, d->current_sweep,
                                               d->proposed_sweep,
                                               d->migration_cost, moved});
  }

  /// A factorization's boundary: the priced region of A is also the one
  /// matrix's blocks that migrate.
  void maybe_rebalance(std::size_t k, const RebalanceRegion& region) {
    maybe_rebalance(k, region,
                    {{kTagA, region.row_lo, region.row_hi, region.col_lo,
                      region.col_hi, region.lower_only}});
  }

  /// Lands a copy of `key` (present at `from`) in `to`'s store, recycling
  /// a pooled buffer when one matches the shape: the copy is queued as a
  /// task reading (from, key) and writing (to, key). When the destination
  /// already holds the block (a broadcast restoring an owner's bound
  /// blocks, a copy onto a live transient), the existing block is written
  /// in place — a put would free a buffer that pending readers may still
  /// be using, and the write dependency already orders the copy after
  /// them. A copy that lands the block afresh or on a live transient makes
  /// it a transient of the current step.
  void copy_block(std::size_t from, std::size_t to, BlockKey key) {
    const ConstMatrixView src = store[from].read(key);
    const bool absent = !store[to].contains(key);
    if (absent) store[to].put(key, store[to].acquire(src.rows(), src.cols()));
    if (absent || live.count(key_of(to, key)) > 0) land(to, key);
    const MatrixView dst = store[to].at(key);
    HG_INTERNAL_CHECK(dst.rows() == src.rows() && dst.cols() == src.cols(),
                      "copy_block into a block of different shape");
    stage_op(kGroupCopy | (static_cast<std::uint64_t>(from) << 24) | to,
             "mp.copy", kPrioComm, {key_of(from, key)}, {key_of(to, key)},
             [src, dst] { dst.copy_from(src); }, 0.0, to);
  }

  /// One grid row or column, walked as processor ids base + t * stride for
  /// line positions t < len.
  struct GridLine {
    std::size_t base, stride, len;
    std::size_t at(std::size_t t) const { return base + t * stride; }
  };
  GridLine grid_row(std::size_t gi) const { return {gi * q, 1, q}; }
  GridLine grid_col(std::size_t gj) const { return {gj, q, p}; }

  /// Ring-broadcasts the listed blocks (all already present at line
  /// position `src_pos`) along `line`, starting no earlier than `start`.
  /// `ready[id]` is updated with the time the bundle is fully available at
  /// each processor of the line; copies land in the receivers' stores.
  /// Each hop is one priced message. Its block copies fuse into one task
  /// unless `fuse_hop` is false: then each copy is a task of its own, so
  /// a block goes on as soon as it is written, not once the whole bundle
  /// is (QR's Y ring, whose next-panel block would otherwise wait for the
  /// bulk update's).
  void ring_broadcast(GridLine line, std::size_t src_pos,
                      const std::vector<BlockKey>& keys, double start,
                      std::vector<double>& ready, bool fuse_hop = true) {
    const std::size_t src = line.at(src_pos);
    ready[src] = std::max(ready[src], start);
    if (line.len == 1 || keys.empty()) return;
    double upstream = ready[src];
    for (std::size_t hop = 1; hop < line.len; ++hop) {
      const std::size_t from = line.at((src_pos + hop - 1) % line.len);
      const std::size_t to = line.at((src_pos + hop) % line.len);
      const double arrival = net.transfer(from, to, keys.size(), upstream);
      for (const BlockKey& k : keys) {
        copy_block(from, to, k);
        if (!fuse_hop) flush_fused();
      }
      ready[to] = std::max(ready[to], arrival);
      upstream = arrival;
    }
  }

  /// Copies one block to another processor right away (feeder transfer for
  /// misaligned distributions: a panel block that a foreign grid row/column
  /// needs is first shipped to that line's ring source). Returns arrival.
  double feeder(std::size_t from, std::size_t to, BlockKey key,
                double start) {
    if (from == to) return start;
    const double arrival = net.transfer(from, to, 1, start);
    copy_block(from, to, key);
    return arrival;
  }

  /// Turns the work `acc` booked on `id` into one compute span that may
  /// not start before `ready`, and empties `acc`. An empty `acc` charges
  /// nothing.
  void charge(std::size_t id, double ready, Work& acc, const char* name,
              ObsOp op) {
    if (acc.seconds > 0.0) compute(id, ready, acc.seconds, name, op, acc.units);
    acc = Work{};
  }

  /// Runs `seconds` of compute on `id` that may not start before `ready`.
  /// `op` / `units` tag the charge for the cycle-time estimator: `units`
  /// is the cycle-time-free flop measure (costs.X * vol_frac sums), so
  /// seconds / units is exactly the effective t_ij this charge assumed.
  void compute(std::size_t id, double ready, double seconds,
               const char* name, ObsOp op, double units) {
    const double start = std::max(clock[id], ready);
    clock[id] = start + seconds;
    busy[id] += seconds;
    trace_span(sink, TraceEventKind::kComputeBlock, id, start, seconds, step,
               name);
    reb.sample(id, op, units, seconds, step);
  }

  MpReport report() const {
    MpReport rep;
    rep.clock = clock;
    rep.busy = busy;
    rep.makespan = *std::max_element(clock.begin(), clock.end());
    rep.messages = net.messages_sent();
    rep.blocks_moved = net.bytes_blocks_sent();
    rep.rebalances = reb_applied;
    rep.rebalance_blocks = reb_blocks;
    return rep;
  }
};

// Distributes matrix `m`, tagged `which` in the stores (block keys get a
// row offset of which * nbr to tell A/B/C apart), timing-free as in
// ScaLAPACK, where data is assumed distributed from the start: no clock,
// message, trace event or task moves, and nothing is copied. Each owner's
// store binds its blocks to views of `m` itself — read-only when `m` is a
// ConstMatrixView (MMM's A and B) — and the kernels compute on them in
// place.
template <class View>
void scatter(MpContext& ctx, std::size_t which, const View& m,
             std::size_t nbr, std::size_t nbc) {
  for (std::size_t bi = 0; bi < nbr; ++bi) {
    const std::size_t ilo = block_lo(bi, ctx.block);
    const std::size_t ilen = block_len(bi, ctx.block, m.rows());
    for (std::size_t bj = 0; bj < nbc; ++bj) {
      const std::size_t jlo = block_lo(bj, ctx.block);
      const std::size_t jlen = block_len(bj, ctx.block, m.cols());
      ctx.store[ctx.owner_pid(bi, bj)].bind(BlockKey{which * nbr + bi, bj},
                                            m.block(ilo, jlo, ilen, jlen));
    }
  }
}

// Whether the memory spans of two views, first element to last, intersect.
bool overlaps(const ConstMatrixView& x, const ConstMatrixView& y) {
  const auto span = [](const ConstMatrixView& v) {
    const auto lo = reinterpret_cast<std::uintptr_t>(v.data());
    const std::size_t len =
        v.rows() == 0 || v.cols() == 0 ? 0 : (v.cols() - 1) * v.ld() + v.rows();
    return std::pair{lo, lo + len * sizeof(double)};
  };
  const auto [xlo, xhi] = span(x);
  const auto [ylo, yhi] = span(y);
  return xlo < yhi && ylo < xhi;
}

// Element-wise dst += src for the QR W-reduction (runs on the reduction
// root's task lane, in ascending contributor order, so the summation order
// is identical for any thread count).
void add_in_place(const ConstMatrixView& src, MatrixView dst) {
  for (std::size_t j = 0; j < dst.cols(); ++j)
    for (std::size_t i = 0; i < dst.rows(); ++i) dst(i, j) += src(i, j);
}

// The gathered panel shared by QR and pivoted LU. Block column k's panel
// (block rows [k, nbr) of A, all in grid column diag.col) travels to the
// diagonal owner `diag_id`, one feeder hop per off-owner block. `keys`
// receives the panel's block keys, for the factor's dependencies and for
// the ring back down the grid column, which the caller sends. Returns the
// virtual time the whole panel is at the owner.
double gather_panel(MpContext& ctx, std::size_t k, std::size_t nbr,
                    std::size_t diag_id, std::vector<BlockKey>& keys) {
  double ready = ctx.clock[diag_id];
  keys.clear();
  for (std::size_t bi = k; bi < nbr; ++bi) {
    const std::size_t from = ctx.owner_pid(bi, k);
    const BlockKey key{kTagA * nbr + bi, k};
    ready = std::max(ready, ctx.feeder(from, diag_id, key, ctx.clock[from]));
    keys.push_back(key);
  }
  return ready;
}

// Queues the factorization of a gathered panel — the blocks `keys`, at the
// diagonal owner `diag_id` (gather_panel), each `cols` wide — as one
// add_task weighing `weight` virtual seconds, and returns its id. The task
// stacks the blocks in block-row order as the rows of one contiguous panel
// in `buf`, runs `factor` on that panel, and writes it back; it writes the
// panel blocks plus `extra`, what `factor` writes besides the panel (QR's
// T). The blocks are resolved and every shape checked here, on the host,
// so the task cannot throw. Panel k + 1 reads what step k's updates wrote
// with panel k's factors, so the tasks of consecutive steps never share
// `buf`.
template <class Factor>
TaskGraph::TaskId panel_task(MpContext& ctx, std::size_t diag_id,
                             const std::vector<BlockKey>& keys,
                             std::vector<BlockKey> extra, std::size_t cols,
                             Matrix& buf, double weight, Factor factor) {
  std::vector<MatrixView> blocks;
  std::size_t rows = 0;
  for (const BlockKey& key : keys) {
    blocks.push_back(ctx.store[diag_id].at(key));
    HG_INTERNAL_CHECK(blocks.back().cols() == cols,
                      "gathered panel block of the wrong width");
    rows += blocks.back().rows();
  }
  HG_INTERNAL_CHECK(rows >= cols && rows * cols <= buf.rows() * buf.cols(),
                    "gathered panel of " << rows << "x" << cols
                                         << " does not fit its buffer");
  const MatrixView panel(buf.data(), rows, cols, rows);
  extra.insert(extra.begin(), keys.begin(), keys.end());
  return ctx.add_task(
      diag_id, extra,
      [blocks = std::move(blocks), panel, factor] {
        std::size_t r = 0;
        for (const MatrixView& b : blocks) {
          panel.block(r, 0, b.rows(), b.cols()).copy_from(b);
          r += b.rows();
        }
        factor(panel);
        r = 0;
        for (const MatrixView& b : blocks) {
          b.copy_from(panel.block(r, 0, b.rows(), b.cols()));
          r += b.rows();
        }
      },
      weight);
}

// The gathered panel's virtual work at the diagonal owner: `weight` (a
// KernelCosts entry) per panel block, summed down the block rows.
Work panel_work(const MpContext& ctx, std::size_t k, std::size_t nbr,
                std::size_t rows, std::size_t klen, std::size_t diag_id,
                double weight) {
  Work w;
  for (std::size_t bi = k; bi < nbr; ++bi) {
    const double frac =
        vol_frac(block_len(bi, ctx.block, rows), klen, klen, ctx.block);
    w.units += weight * frac;
    w.seconds += ctx.cycle_time(diag_id) * weight * frac;
  }
  return w;
}

// The diagonal phase shared by LU and Cholesky at step k. The diagonal
// block's owner factors it with `factor` in one add_task, weighing
// `weight` per block. The task waits only for the ops touching the
// diagonal block — the rest of the previous step's trailing update keeps
// running underneath, the wall-clock lookahead overlap — and the host
// waits for that task alone, since a failed factor ends the run: then this
// returns false, with nothing broadcast, queued after the factor, or
// charged. Otherwise the host charges the factor and ring-broadcasts the
// block down its grid column, and every owner of a block (I, k), I > k,
// solves it against its diagonal copy with `solve` on its own task lane,
// charged at `weight` too.
bool diagonal_phase(MpContext& ctx, std::size_t k, std::size_t nb,
                    std::size_t n, bool (*factor)(MatrixView),
                    void (*solve)(const ConstMatrixView&, MatrixView),
                    double weight) {
  const std::size_t block = ctx.block;
  const std::size_t klen = block_len(k, block, n);
  const ProcCoord diag = ctx.owner(k, k);
  const std::size_t diag_id = ctx.pid(diag.row, diag.col);
  const BlockKey diag_key{kTagA * nb + k, k};
  const MatrixView dv = ctx.store[diag_id].at(diag_key);
  // cholesky_factor_unblocked's one check, made here so the task cannot
  // throw.
  HG_INTERNAL_CHECK(dv.rows() == klen && dv.cols() == klen,
                    "diagonal block is not square at step " << k);
  const double units = weight * vol_frac(klen, klen, klen, block);
  const double seconds = ctx.cycle_time(diag_id) * units;
  // The task owns the outcome, so it outlives an unwinding host.
  const auto factored = std::make_shared<bool>(false);
  ctx.host_wait(ctx.add_task(diag_id, {diag_key},
                             [factor, dv, factored] { *factored = factor(dv); },
                             seconds));
  if (!*factored) return false;
  ctx.compute(diag_id, 0.0, seconds, "panel", ObsOp::kPanel, units);

  std::vector<double> ready(ctx.p * ctx.q, 0.0);
  ctx.ring_broadcast(ctx.grid_col(diag.col), diag.row, {diag_key},
                     ctx.clock[diag_id], ready);
  Work acc;
  for (std::size_t bi = k + 1; bi < nb; ++bi) {
    const std::size_t id = ctx.owner_pid(bi, k);
    ctx.solve_op(acc, id, solve, diag_key, {kTagA * nb + bi, k},
                 weight * vol_frac(block_len(bi, block, n), klen, klen, block));
    ctx.charge(id, ready[id], acc, "l-solve", ObsOp::kSolve);
  }
  return true;
}

// Pivoted LU's row interchanges for step k, applied to every block column
// but k (whose rows the panel factorization already swapped). `src` maps
// each row r in [klo, n) to the row whose pre-step contents it receives —
// getrf's one-by-one swaps composed into one permutation, so every row
// moves exactly once. A row that changes processor (always within one grid
// column, under an aligned distribution) travels as a block copy to its
// destination: one priced message per (source, destination) pair of a grid
// column, sized by the rows it carries over all of that column's block
// columns and rounded up to whole blocks, leaving no earlier than the
// sender holds the pivots (`ready`, the L panel's arrival). Destinations
// then write the received and their own rows in a local op, and their
// clocks wait for the arrivals, as after a migration.
void apply_row_swaps(MpContext& ctx, std::size_t k, std::size_t nb,
                     std::size_t n, const std::vector<std::size_t>& src,
                     const std::vector<double>& ready) {
  const std::size_t block = ctx.block;
  const std::size_t klo = block_lo(k, block);
  std::vector<std::size_t> moved;  // destination rows, ascending
  for (std::size_t r = klo; r < n; ++r)
    if (src[r - klo] != r) moved.push_back(r);
  if (moved.empty()) return;
  const auto where = [&](std::size_t row, std::size_t bj) {
    return ctx.owner_pid(row / block, bj);
  };

  std::map<std::pair<std::size_t, std::size_t>, std::size_t> elems;
  for (std::size_t bj = 0; bj < nb; ++bj) {
    if (bj == k) continue;
    for (const std::size_t r : moved) {
      const std::size_t from = where(src[r - klo], bj), to = where(r, bj);
      if (from != to) elems[{from, to}] += block_len(bj, block, n);
    }
  }
  std::vector<double> arrive(ctx.p * ctx.q, 0.0);
  for (const auto& [pair, count] : elems) {
    const auto [from, to] = pair;
    const std::size_t blocks = (count + block * block - 1) / (block * block);
    const double arrival = ctx.net.transfer(
        from, to, blocks, std::max(ctx.clock[from], ready[from]));
    arrive[to] = std::max(arrive[to], arrival);
  }

  struct RowMove {
    ConstMatrixView from;
    std::size_t from_row;
    MatrixView to;
    std::size_t to_row;
  };
  std::vector<std::pair<std::size_t, BlockKey>> copied;
  for (std::size_t bj = 0; bj < nb; ++bj) {
    if (bj == k) continue;
    const auto key_of_row = [&](std::size_t row) {
      return BlockKey{kTagA * nb + row / block, bj};
    };
    // Every copy of this block column is queued before any destination
    // writes, so each copy carries its source block's pre-swap rows.
    for (const std::size_t r : moved) {
      const std::size_t from = where(src[r - klo], bj), to = where(r, bj);
      const BlockKey key = key_of_row(src[r - klo]);
      const std::pair<std::size_t, BlockKey> copy{to, key};
      if (from == to ||
          std::find(copied.begin(), copied.end(), copy) != copied.end())
        continue;
      ctx.copy_block(from, to, key);
      copied.push_back(copy);
    }
    for (std::size_t id = 0; id < ctx.p * ctx.q; ++id) {
      std::vector<BlockKey> reads, writes;
      std::vector<RowMove> rows;
      for (const std::size_t r : moved) {
        if (where(r, bj) != id) continue;
        const BlockKey from_key = key_of_row(src[r - klo]);
        const BlockKey to_key = key_of_row(r);
        if (std::find(reads.begin(), reads.end(), from_key) == reads.end())
          reads.push_back(from_key);
        if (std::find(writes.begin(), writes.end(), to_key) == writes.end())
          writes.push_back(to_key);
        rows.push_back(RowMove{ctx.store[id].read(from_key),
                               src[r - klo] % block, ctx.store[id].at(to_key),
                               r % block});
      }
      if (rows.empty()) continue;
      ctx.add_op(id, "mp.swap", kPrioPanel, reads, writes,
                 [rows = std::move(rows)] {
                   // Read every source row before writing any: a local
                   // source row may be another move's destination.
                   const std::size_t cols = rows.front().to.cols();
                   std::vector<double> buf(rows.size() * cols);
                   for (std::size_t i = 0; i < rows.size(); ++i)
                     for (std::size_t j = 0; j < cols; ++j)
                       buf[i * cols + j] = rows[i].from(rows[i].from_row, j);
                   for (std::size_t i = 0; i < rows.size(); ++i)
                     for (std::size_t j = 0; j < cols; ++j)
                       rows[i].to(rows[i].to_row, j) = buf[i * cols + j];
                 });
    }
  }
  for (std::size_t id = 0; id < ctx.p * ctx.q; ++id)
    ctx.clock[id] = std::max(ctx.clock[id], arrive[id]);
}

}  // namespace

MpReport run_mp_mmm(const Machine& machine, const Distribution2D& dist,
                    const ConstMatrixView& a, const ConstMatrixView& b,
                    MatrixView c, std::size_t block,
                    const KernelCosts& costs, TraceSink* sink,
                    const RuntimeOptions& opts) {
  ProfScope prof_span("mp.mmm");
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n && b.rows() == n && b.cols() == n &&
               c.rows() == n && c.cols() == n,
           "run_mp_mmm needs square same-size A, B, C");
  // C is computed in place, so its writes must not reach A or B; A and B
  // may overlap each other, as both are only read.
  HG_CHECK(!overlaps(c, a) && !overlaps(c, b),
           "run_mp_mmm computes C in place: C must not overlap A or B");
  const std::size_t nb = block_count(n, block);
  MpContext ctx(machine, dist, block, nb, nb, 3, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, kTagA, a, nb, nb);
  scatter(ctx, kTagB, b, nb, nb);
  scatter(ctx, kTagC, c, nb, nb);

  std::vector<double> a_ready(procs), b_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  std::vector<double> row_start(ctx.p), col_start(ctx.q);
  std::vector<std::size_t> a_src(ctx.p, 0), b_src(ctx.q, 0);
  std::vector<char> need_rows(ctx.p), need_cols(ctx.q);
  std::vector<char> a_src_set(ctx.p), b_src_set(ctx.q);

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    // Rebalance over the full C sweep (every step updates all of C); an
    // owner change drags the C block plus the A/B panels still to come.
    ctx.maybe_rebalance(k, RebalanceRegion::whole_matrix(k, nb),
                        {{kTagA, 0, nb, k, nb, false},
                         {kTagB, k, nb, 0, nb, false},
                         {kTagC, 0, nb, 0, nb, false}});
    std::fill(a_ready.begin(), a_ready.end(), 0.0);
    std::fill(b_ready.begin(), b_ready.end(), 0.0);
    std::fill(row_start.begin(), row_start.end(), 0.0);
    std::fill(col_start.begin(), col_start.end(), 0.0);
    for (auto& v : row_keys) v.clear();
    for (auto& v : col_keys) v.clear();

    // A block (bi, k) must reach every grid row that owns some C block of
    // block row bi; a B block (k, bj) every grid column owning C blocks of
    // block column bj. With an aligned distribution that is exactly the
    // block's own grid row/column; a misaligned one (Kalinov–Lastovetsky)
    // additionally ships blocks to foreign lines first (feeder transfers)
    // — the extra messages Figure 3 of the paper warns about. Each line's
    // ring source is fixed to the home position of the line's first key;
    // all other keys are fed to it before the ring starts.
    std::fill(a_src_set.begin(), a_src_set.end(), 0);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      const BlockKey key{kTagA * nb + bi, k};
      const ProcCoord home = ctx.owner(bi, k);
      std::fill(need_rows.begin(), need_rows.end(), 0);
      for (std::size_t bj = 0; bj < nb; ++bj)
        need_rows[ctx.owner(bi, bj).row] = 1;
      for (std::size_t gi = 0; gi < ctx.p; ++gi) {
        if (!need_rows[gi]) continue;
        if (!a_src_set[gi]) {
          a_src[gi] = home.col;
          a_src_set[gi] = 1;
        }
        if (ctx.pid(home.row, home.col) != ctx.pid(gi, a_src[gi])) {
          const double arrival =
              ctx.feeder(ctx.pid(home.row, home.col),
                         ctx.pid(gi, a_src[gi]), key, 0.0);
          row_start[gi] = std::max(row_start[gi], arrival);
        }
        row_keys[gi].push_back(key);
      }
    }
    std::fill(b_src_set.begin(), b_src_set.end(), 0);
    for (std::size_t bj = 0; bj < nb; ++bj) {
      const BlockKey key{kTagB * nb + k, bj};
      const ProcCoord home = ctx.owner(k, bj);
      std::fill(need_cols.begin(), need_cols.end(), 0);
      for (std::size_t bi = 0; bi < nb; ++bi)
        need_cols[ctx.owner(bi, bj).col] = 1;
      for (std::size_t gj = 0; gj < ctx.q; ++gj) {
        if (!need_cols[gj]) continue;
        if (!b_src_set[gj]) {
          b_src[gj] = home.row;
          b_src_set[gj] = 1;
        }
        if (ctx.pid(home.row, home.col) != ctx.pid(b_src[gj], gj)) {
          const double arrival =
              ctx.feeder(ctx.pid(home.row, home.col),
                         ctx.pid(b_src[gj], gj), key, 0.0);
          col_start[gj] = std::max(col_start[gj], arrival);
        }
        col_keys[gj].push_back(key);
      }
    }

    for (std::size_t gi = 0; gi < ctx.p; ++gi)
      ctx.ring_broadcast(ctx.grid_row(gi), a_src[gi], row_keys[gi],
                         row_start[gi], a_ready);
    for (std::size_t gj = 0; gj < ctx.q; ++gj)
      ctx.ring_broadcast(ctx.grid_col(gj), b_src[gj], col_keys[gj],
                         col_start[gj], b_ready);

    // Local updates: C_IJ += A_Ik * B_kJ on owned blocks. Clocks are
    // charged on the host in canonical order; the GEMMs fan out one task
    // lane per processor (each lane reads and writes only its own store).
    // Step 0 runs with beta = 0: gemm starts each C block from +0.0
    // without reading it, so the caller's C is never read.
    const std::size_t klen = block_len(k, block, n);
    const double beta = k == 0 ? 0.0 : 1.0;
    for (std::size_t id = 0; id < procs; ++id) {
      Work acc;
      for (std::size_t bi = 0; bi < nb; ++bi) {
        for (std::size_t bj = 0; bj < nb; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          ctx.gemm_op(acc, id, kPrioUpdate, Trans::No, Trans::No, 1.0,
                      {kTagA * nb + bi, k}, {kTagB * nb + k, bj}, beta,
                      {kTagC * nb + bi, bj},
                      costs.update * vol_frac(block_len(bi, block, n),
                                              block_len(bj, block, n), klen,
                                              block));
        }
      }
      ctx.charge(id, std::max(a_ready[id], b_ready[id]), acc, "update",
                 ObsOp::kUpdate);
    }
  }

  ctx.finish();
  return ctx.report();
}

namespace {

// The right-looking LU step loop behind run_mp_lu and run_mp_lu_pivoted.
// The two differ only in the panel phase (and pivoting's row
// interchanges); the broadcasts, U12 solves and trailing update are shared.
MpLuReport run_lu(const Machine& machine, const Distribution2D& dist,
                  MatrixView a, std::size_t block, const KernelCosts& costs,
                  bool lookahead, bool pivoted, TraceSink* sink,
                  const RuntimeOptions& opts) {
  ProfScope prof_span(pivoted ? "mp.lu_pivoted" : "mp.lu");
  const char* const fn = pivoted ? "run_mp_lu_pivoted" : "run_mp_lu";
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, fn << " needs a square matrix");
  // LU's row/column panels must each live inside one grid row/column for
  // the ring broadcasts below to have a single source — exactly the
  // paper's alignment condition. Misaligned distributions (K–L) are not
  // LU-capable without extra redistribution messages.
  HG_CHECK(neighbor_census(dist).aligned,
           fn << " requires an aligned (grid-pattern) distribution");
  // Row interchanges move data between the owners of fixed block
  // coordinates; a migration mid-run would move the owners under them.
  HG_CHECK(!pivoted || opts.rebalance == RuntimeOptions::Rebalance::kOff,
           fn << " does not support rebalance=panel");
  const std::size_t nb = block_count(n, block);
  // Pivoted LU's panel tasks factor in one contiguous buffer and leave
  // their pivots in `pres`, both declared before the context, whose graph
  // drains before they die on every exit, a throw during emission included.
  Matrix panel_buf =
      pivoted ? Matrix::uninitialized(n, std::min(block, n)) : Matrix();
  LuResult pres;
  MpContext ctx(machine, dist, block, nb, nb, 1, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, kTagA, a, nb, nb);
  MpLuReport rep;
  if (pivoted) rep.piv.resize(n);
  bool singular = false;
  std::vector<BlockKey> panel_keys;

  std::vector<double> diag_ready(procs), l_ready(procs), u_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  // Lookahead: virtual time deferred from the previous step's non-critical
  // trailing work (the arithmetic itself always runs in canonical order).
  std::vector<Work> deferred(procs);
  std::vector<double> deferred_ready(procs, 0.0);

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    ctx.maybe_rebalance(k, RebalanceRegion::trailing(k, nb, nb));
    const std::size_t klen = block_len(k, block, n);
    const ProcCoord diag = ctx.owner(k, k);
    const std::size_t diag_id = ctx.pid(diag.row, diag.col);
    const BlockKey diag_key{kTagA * nb + k, k};

    std::vector<std::size_t> swap_src;
    if (pivoted) {
      // --- Pivoted panel phase: the whole panel column is gathered to the
      // diagonal owner, factored there with partial pivoting in one task
      // (run_mp_qr's panel), and ringed back down its grid column. The
      // task waits only for the ops touching the panel blocks at the
      // diagonal owner (the feeder copies and the owner's own previous
      // trailing updates); everything else keeps running. The host waits
      // for the task, as its pivots pick the row interchanges emitted
      // below.
      const double gather_ready =
          gather_panel(ctx, k, nb, diag_id, panel_keys);
      const Work pw =
          panel_work(ctx, k, nb, n, klen, diag_id, costs.panel_factor);
      ctx.host_wait(panel_task(
          ctx, diag_id, panel_keys, {}, klen, panel_buf, pw.seconds,
          [res = &pres](MatrixView panel) {
            *res = lu_factor_unblocked(panel);
          }));
      ctx.compute(diag_id, gather_ready, pw.seconds, "panel", ObsOp::kPanel,
                  pw.units);
      singular = singular || pres.singular;
      const std::size_t klo = block_lo(k, block);
      swap_src.resize(n - klo);
      std::iota(swap_src.begin(), swap_src.end(), klo);
      for (std::size_t i = 0; i < klen; ++i) {
        rep.piv[klo + i] = klo + pres.piv[i];
        std::swap(swap_src[i], swap_src[pres.piv[i]]);
      }
      std::fill(diag_ready.begin(), diag_ready.end(), 0.0);
      ctx.ring_broadcast(ctx.grid_col(diag.col), diag.row, panel_keys,
                         ctx.clock[diag_id], diag_ready);
      // The panel's grid column forwards the L panel only once it holds
      // the factored blocks.
      for (std::size_t id = 0; id < procs; ++id)
        ctx.clock[id] = std::max(ctx.clock[id], diag_ready[id]);
    } else if (!diagonal_phase(ctx, k, nb, n, lu_factor_nopivot,
                               trsm_right_upper, costs.panel_factor)) {
      // --- Unpivoted panel phase (the diagonal block, then the L21
      // solves) hit a zero pivot.
      singular = true;
      break;
    }

    // --- Horizontal broadcast of the L panel (diag + L21) per grid row.
    std::fill(l_ready.begin(), l_ready.end(), 0.0);
    for (auto& v : row_keys) v.clear();
    for (std::size_t bi = k; bi < nb; ++bi)
      row_keys[ctx.owner(bi, k).row].push_back(
          BlockKey{kTagA * nb + bi, k});
    for (std::size_t gi = 0; gi < ctx.p; ++gi)
      ctx.ring_broadcast(ctx.grid_row(gi), diag.col, row_keys[gi],
                         ctx.clock[ctx.pid(gi, diag.col)], l_ready);

    // --- Pivoting: the L panel carried the step's pivots along the grid
    // rows; every other block column now interchanges its rows.
    if (pivoted) apply_row_swaps(ctx, k, nb, n, swap_src, l_ready);

    // --- U12 solves: owners of (k, J), J > k need L11 (came with the L
    // panel broadcast along their row).
    Work acc;
    for (std::size_t bj = k + 1; bj < nb; ++bj) {
      const std::size_t id = ctx.owner_pid(k, bj);
      ctx.solve_op(acc, id, trsm_left_lower_unit, diag_key,
                   {kTagA * nb + k, bj},
                   costs.trsm *
                       vol_frac(klen, block_len(bj, block, n), klen, block));
      ctx.charge(id, l_ready[id], acc, "u-solve", ObsOp::kSolve);
    }

    // --- Vertical broadcast of the U panel per grid column.
    std::fill(u_ready.begin(), u_ready.end(), 0.0);
    for (auto& v : col_keys) v.clear();
    for (std::size_t bj = k + 1; bj < nb; ++bj)
      col_keys[ctx.owner(k, bj).col].push_back(
          BlockKey{kTagA * nb + k, bj});
    for (std::size_t gj = 0; gj < ctx.q; ++gj)
      ctx.ring_broadcast(ctx.grid_col(gj), diag.row, col_keys[gj],
                         ctx.clock[ctx.pid(diag.row, gj)], u_ready);

    // --- Settle the previous step's deferred (non-critical) work before
    // this step's trailing phase: the panel and solves above already went
    // out ahead of it — that is the lookahead.
    for (std::size_t id = 0; id < procs; ++id)
      ctx.charge(id, deferred_ready[id], deferred[id], "update-deferred",
                 ObsOp::kUpdate);

    // --- Trailing updates A_IJ -= L_Ik * U_kJ on owned blocks. With
    // lookahead, the blocks the next panel needs (block column/row k+1)
    // are charged on the critical path now; the rest is deferred to after
    // the next step's panel phase. The deferral is pure virtual-time
    // bookkeeping — the GEMM tasks are always emitted in this step, in
    // canonical order per processor.
    for (std::size_t id = 0; id < procs; ++id) {
      const double ready = std::max(l_ready[id], u_ready[id]);
      for (std::size_t bi = k + 1; bi < nb; ++bi) {
        for (std::size_t bj = k + 1; bj < nb; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          // Next-panel blocks (column / row k + 1) run at panel priority
          // so the graph releases step k + 1's critical chain first — the
          // wall-clock counterpart of the virtual-time lookahead.
          const bool next = bi == k + 1 || bj == k + 1;
          ctx.gemm_op(lookahead && !next ? deferred[id] : acc, id,
                      next ? kPrioPanel : kPrioUpdate, Trans::No, Trans::No,
                      -1.0, {kTagA * nb + bi, k}, {kTagA * nb + k, bj}, 1.0,
                      {kTagA * nb + bi, bj},
                      costs.update * vol_frac(block_len(bi, block, n),
                                              block_len(bj, block, n), klen,
                                              block));
        }
      }
      ctx.charge(id, ready, acc, "update", ObsOp::kUpdate);
      deferred_ready[id] = ready;
    }
  }

  // Only a zero pivot leaves anything deferred here: the step it stopped
  // never settled the previous step's updates, which the graph still runs.
  for (std::size_t id = 0; id < procs; ++id)
    ctx.charge(id, deferred_ready[id], deferred[id], "update-deferred",
               ObsOp::kUpdate);
  ctx.finish();
  static_cast<MpReport&>(rep) = ctx.report();
  rep.factorized = !singular;
  return rep;
}

}  // namespace

MpReport run_mp_lu(const Machine& machine, const Distribution2D& dist,
                   MatrixView a, std::size_t block,
                   const KernelCosts& costs, bool lookahead,
                   TraceSink* sink, const RuntimeOptions& opts) {
  return run_lu(machine, dist, a, block, costs, lookahead, false, sink,
                opts);
}

MpLuReport run_mp_lu_pivoted(const Machine& machine,
                             const Distribution2D& dist, MatrixView a,
                             std::size_t block, const KernelCosts& costs,
                             TraceSink* sink, const RuntimeOptions& opts) {
  return run_lu(machine, dist, a, block, costs, false, true, sink, opts);
}

MpReport run_mp_cholesky(const Machine& machine, const Distribution2D& dist,
                         MatrixView a, std::size_t block,
                         const KernelCosts& costs, TraceSink* sink,
                         const RuntimeOptions& opts) {
  ProfScope prof_span("mp.cholesky");
  const std::size_t n = a.rows();
  HG_CHECK(a.cols() == n, "run_mp_cholesky needs a square matrix");
  HG_CHECK(neighbor_census(dist).aligned,
           "run_mp_cholesky requires an aligned distribution");
  const std::size_t nb = block_count(n, block);
  MpContext ctx(machine, dist, block, nb, nb, 1, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, kTagA, a, nb, nb);

  std::vector<double> l_ready(procs), c_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p);
  bool factorized = true;

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    // Cholesky touches only the lower trailing triangle (bj <= bi).
    ctx.maybe_rebalance(k, RebalanceRegion::trailing(k, nb, nb, true));
    const std::size_t klen = block_len(k, block, n);
    const ProcCoord diag = ctx.owner(k, k);

    // --- Factor the diagonal block, then the L21 solves
    // A_Ik := A_Ik * inv(L11)^T.
    if (!diagonal_phase(ctx, k, nb, n, cholesky_factor_unblocked,
                        trsm_right_lower_transposed, costs.chol_factor)) {
      factorized = false;
      break;
    }

    // --- Phase 1: L panel along each grid row.
    std::fill(l_ready.begin(), l_ready.end(), 0.0);
    for (auto& v : row_keys) v.clear();
    for (std::size_t bi = k + 1; bi < nb; ++bi)
      row_keys[ctx.owner(bi, k).row].push_back(
          BlockKey{kTagA * nb + bi, k});
    for (std::size_t gi = 0; gi < ctx.p; ++gi)
      ctx.ring_broadcast(ctx.grid_row(gi), diag.col, row_keys[gi],
                         ctx.clock[ctx.pid(gi, diag.col)], l_ready);

    // --- Phase 2: each L block (J, k) relays down grid column
    // owner(.,J).col, starting from the processor of its own grid row in
    // that column (which received it in phase 1). Bundle per
    // (column, source-row) ring.
    std::fill(c_ready.begin(), c_ready.end(), 0.0);
    std::map<std::pair<std::size_t, std::size_t>, std::vector<BlockKey>>
        col_rings;
    for (std::size_t bj = k + 1; bj < nb; ++bj) {
      const std::size_t gj = ctx.owner(0, bj).col;
      const std::size_t src_gi = ctx.owner(bj, k).row;
      col_rings[{gj, src_gi}].push_back(BlockKey{kTagA * nb + bj, k});
    }
    for (const auto& [line, keys] : col_rings) {
      const auto [gj, src_gi] = line;
      ctx.ring_broadcast(ctx.grid_col(gj), src_gi, keys,
                         l_ready[ctx.pid(src_gi, gj)], c_ready);
    }

    // --- Symmetric trailing update A_IJ -= L_I * L_J^T, I >= J > k.
    for (std::size_t id = 0; id < procs; ++id) {
      Work acc;
      for (std::size_t bi = k + 1; bi < nb; ++bi) {
        for (std::size_t bj = k + 1; bj <= bi; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          ctx.gemm_op(acc, id, bj == k + 1 ? kPrioPanel : kPrioUpdate,
                      Trans::No, Trans::Yes, -1.0, {kTagA * nb + bi, k},
                      {kTagA * nb + bj, k}, 1.0, {kTagA * nb + bi, bj},
                      costs.update * vol_frac(block_len(bi, block, n),
                                              block_len(bj, block, n), klen,
                                              block));
        }
      }
      ctx.charge(id, std::max(l_ready[id], c_ready[id]), acc, "update",
                 ObsOp::kUpdate);
    }
  }

  ctx.finish();
  MpReport rep = ctx.report();
  rep.factorized = factorized;
  return rep;
}

MpQrReport run_mp_qr(const Machine& machine, const Distribution2D& dist,
                     MatrixView a, std::size_t block,
                     const KernelCosts& costs, TraceSink* sink,
                     const RuntimeOptions& opts) {
  ProfScope prof_span("mp.qr");
  const std::size_t rows = a.rows(), cols = a.cols();
  HG_CHECK(rows >= cols, "run_mp_qr needs rows >= cols, got " << rows << "x"
                                                              << cols);
  HG_CHECK(neighbor_census(dist).aligned,
           "run_mp_qr requires an aligned (grid-pattern) distribution");
  const std::size_t nbr = block_count(rows, block);
  const std::size_t nbc = block_count(cols, block);
  // The panel tasks write tau and factor in one contiguous buffer, both
  // allocated here, once: declared before the context, whose graph drains
  // before they die on every exit, a throw during emission included.
  MpQrReport rep;
  rep.tau.assign(cols, 0.0);
  Matrix panel_buf = Matrix::uninitialized(rows, std::min(block, cols));
  MpContext ctx(machine, dist, block, nbr, nbc, 1, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, kTagA, a, nbr, nbc);

  std::vector<double> col_ready(procs), v_ready(procs), y_ready(procs);
  std::vector<Work> acc(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  std::vector<char> contrib(ctx.p);

  for (std::size_t k = 0; k < nbc; ++k) {
    ctx.set_step(k);
    // Rebalance the trailing panel + update region. Note: migrating under
    // QR regroups the W-reduction by the *new* grid rows, so a rebalanced
    // run's bits differ from the static plan's (still deterministic and
    // residual-accurate; see doc/rebalance.md).
    ctx.maybe_rebalance(k, RebalanceRegion::trailing(k, nbr, nbc));
    const std::size_t klen = block_len(k, block, cols);
    const ProcCoord diag = ctx.owner(k, k);
    const std::size_t diag_id = ctx.pid(diag.row, diag.col);
    const BlockKey diag_key{kTagA * nbr + k, k};
    const BlockKey t_key{kTagT * nbr + k, k};
    const BlockKey v0_key{kTagV * nbr + k, k};
    // Block row bi of the V panel: the unit-lower V0 on the diagonal.
    const auto v_key = [&](std::size_t bi) {
      return bi == k ? v0_key : BlockKey{kTagA * nbr + bi, k};
    };

    // Grid rows holding any panel / trailing block row this step. With an
    // aligned distribution owner(bi, .).row is bj-independent.
    std::fill(contrib.begin(), contrib.end(), 0);
    for (std::size_t bi = k; bi < nbr; ++bi)
      contrib[ctx.owner(bi, k).row] = 1;

    // --- Gather the column panel to the diagonal owner and factor it there
    // in one panel_task on the owner's lane, which also builds the block-
    // reflector factor T when a trailing update will need it. The task
    // depends on the feeder copies and the owner's previous updates of
    // the panel blocks, so it runs while the rest of the previous step's
    // trailing update keeps the other workers busy. Its record weighs the
    // panel and t-form charges together.
    const bool has_trailing = k + 1 < nbc;
    std::vector<BlockKey> panel_keys;
    const double gather_ready = gather_panel(ctx, k, nbr, diag_id, panel_keys);
    const Work pw =
        panel_work(ctx, k, nbr, rows, klen, diag_id, costs.qr_factor);
    ctx.compute(diag_id, gather_ready, pw.seconds, "panel", ObsOp::kPanel,
                pw.units);
    Work tw;
    std::optional<MatrixView> t_view;
    std::vector<BlockKey> t_keys;
    if (has_trailing) {
      // T, kept at the diagonal owner and shipped along grid row diag.row
      // with the V panel below; klen x klen, as wide as the panel
      // panel_task checks.
      ctx.put_transient(diag_id, t_key, ctx.store[diag_id].acquire(klen, klen));
      t_view = ctx.store[diag_id].at(t_key);
      t_keys.push_back(t_key);
      tw.units = costs.qr_update * vol_frac(klen, klen, klen, block);
      tw.seconds = ctx.cycle_time(diag_id) * tw.units;
      ctx.compute(diag_id, 0.0, tw.seconds, "t-form", ObsOp::kAux, tw.units);
    }
    double* const tau = rep.tau.data() + block_lo(k, block);
    panel_task(ctx, diag_id, panel_keys, t_keys, klen, panel_buf,
               pw.seconds + tw.seconds, [tau, t_view](MatrixView panel) {
                 Matrix t;
                 const QrResult res = qr_factor(panel, t_view ? &t : nullptr);
                 std::copy(res.tau.begin(), res.tau.end(), tau);
                 if (t_view) t_view->copy_from(t.view());
               });

    // --- Send the factored panel back down the owner grid column (also
    // restores the owners' blocks, so this runs even at the last step).
    std::fill(col_ready.begin(), col_ready.end(), 0.0);
    ctx.ring_broadcast(ctx.grid_col(diag.col), diag.row, panel_keys,
                       ctx.clock[diag_id], col_ready);

    if (has_trailing) {
      // --- V panel out along grid rows: each row carries its own blocks;
      // row diag.row also carries T (needed by the reduction roots).
      std::fill(v_ready.begin(), v_ready.end(), 0.0);
      for (auto& v : row_keys) v.clear();
      for (std::size_t bi = k; bi < nbr; ++bi)
        row_keys[ctx.owner(bi, k).row].push_back(
            BlockKey{kTagA * nbr + bi, k});
      row_keys[diag.row].push_back(t_key);
      for (std::size_t gi = 0; gi < ctx.p; ++gi) {
        if (row_keys[gi].empty()) continue;
        const std::size_t src = ctx.pid(gi, diag.col);
        ctx.ring_broadcast(ctx.grid_row(gi), diag.col, row_keys[gi],
                           std::max(col_ready[src], ctx.clock[src]),
                           v_ready);
      }

      // --- Build the unit-lower diagonal V block at every processor of
      // grid row diag.row (local postprocessing of the received diagonal
      // block; off-diagonal panel blocks are already pure V). Queued as an
      // op on the owner's lane so the graph orders it after the diagonal
      // copy lands and before its pass-1 readers.
      for (std::size_t gj = 0; gj < ctx.q; ++gj) {
        const std::size_t id = ctx.pid(diag.row, gj);
        const ConstMatrixView dv = ctx.store[id].read(diag_key);
        ctx.put_transient(id, v0_key, ctx.store[id].acquire(dv.rows(), klen));
        const MatrixView v0v = ctx.store[id].at(v0_key);
        ctx.add_op(id, "mp.v0", kPrioSolve, {diag_key}, {v0_key},
                   [dv, v0v] {
                     for (std::size_t j = 0; j < v0v.cols(); ++j)
                       for (std::size_t i = 0; i < v0v.rows(); ++i)
                         v0v(i, j) =
                             i > j ? dv(i, j) : (i == j ? 1.0 : 0.0);
                   });
      }

      // --- Pass 1: partial W = V^T * C per (processor, trailing column),
      // ascending block row on each owner's lane; the first gemm into a
      // partial runs with beta = 0, which overwrites the recycled buffer.
      // W keys carry the step in their column: step k's partials stay live
      // through the step window, so step k + 1 must not re-create them.
      for (std::size_t bj = k + 1; bj < nbc; ++bj) {
        const std::size_t gj = ctx.owner(k, bj).col;
        const std::size_t jlen = block_len(bj, block, cols);
        for (std::size_t gi = 0; gi < ctx.p; ++gi) {
          if (!contrib[gi]) continue;
          const std::size_t id = ctx.pid(gi, gj);
          const BlockKey w_key{kTagW * nbr + bj, k * ctx.p + gi};
          ctx.put_transient(id, w_key, ctx.store[id].acquire(klen, jlen));
          double beta = 0.0;
          for (std::size_t bi = k; bi < nbr; ++bi) {
            if (ctx.owner(bi, k).row != gi) continue;
            // Column k + 1 feeds the next panel: it runs at panel priority
            // (pass 2 below too) so the host's factorization of panel k + 1
            // overlaps the rest of this step's update, as in LU and
            // Cholesky.
            ctx.gemm_op(acc[id], id, bj == k + 1 ? kPrioPanel : kPrioUpdate,
                        Trans::Yes, Trans::No, 1.0, v_key(bi),
                        {kTagA * nbr + bi, bj}, beta, w_key,
                        0.5 * costs.qr_update *
                            vol_frac(block_len(bi, block, rows), jlen, klen,
                                     block));
            beta = 1.0;
          }
          HG_INTERNAL_CHECK(beta == 1.0,
                            "QR W partial has no contributing block row");
        }
      }
      for (std::size_t id = 0; id < procs; ++id)
        ctx.charge(id, v_ready[id], acc[id], "w-accumulate", ObsOp::kUpdate);

      // --- Reduce the partials within each grid column to the diag.row
      // processor and finish Y = T^T * W there. The adds run on the root's
      // lane in ascending contributor order (fixed summation order).
      for (std::size_t bj = k + 1; bj < nbc; ++bj) {
        const std::size_t gj = ctx.owner(k, bj).col;
        const std::size_t jlen = block_len(bj, block, cols);
        const std::size_t root = ctx.pid(diag.row, gj);
        const BlockKey w_root_key{kTagW * nbr + bj, k * ctx.p + diag.row};
        const MatrixView w_root = ctx.store[root].at(w_root_key);
        double reduce_ready = 0.0;
        for (std::size_t gi = 0; gi < ctx.p; ++gi) {
          if (!contrib[gi] || gi == diag.row) continue;
          const std::size_t src = ctx.pid(gi, gj);
          const BlockKey w_key{kTagW * nbr + bj, k * ctx.p + gi};
          const double arrival =
              ctx.net.transfer(src, root, 1, ctx.clock[src]);
          ctx.copy_block(src, root, w_key);
          reduce_ready = std::max(reduce_ready, arrival);
          const ConstMatrixView pv = ctx.store[root].read(w_key);
          ctx.add_op(root, "mp.add", kPrioSolve, {w_key}, {w_root_key},
                     [pv, w_root] { add_in_place(pv, w_root); });
        }
        // Y keys carry the step in their column for the same reason as
        // the W partials.
        const BlockKey y_key{kTagY * nbr + bj, k};
        ctx.put_transient(root, y_key, ctx.store[root].acquire(klen, jlen));
        // beta = 0 overwrites whatever the recycled buffer held.
        ctx.gemm_op(acc[root], root, kPrioSolve, Trans::Yes, Trans::No, 1.0,
                    t_key, w_root_key, 0.0, y_key,
                    costs.qr_update * vol_frac(klen, jlen, klen, block));
        ctx.charge(root, reduce_ready, acc[root], "w-reduce", ObsOp::kUpdate);
      }

      // --- Y back out along each grid column that owns trailing columns.
      std::fill(y_ready.begin(), y_ready.end(), 0.0);
      for (auto& v : col_keys) v.clear();
      for (std::size_t bj = k + 1; bj < nbc; ++bj)
        col_keys[ctx.owner(k, bj).col].push_back(
            BlockKey{kTagY * nbr + bj, k});
      // One copy task per Y block, so column k + 1's Y travels as soon as
      // it is formed, without the bulk pass 1 of the other columns.
      for (std::size_t gj = 0; gj < ctx.q; ++gj) {
        if (col_keys[gj].empty()) continue;
        ctx.ring_broadcast(ctx.grid_col(gj), diag.row, col_keys[gj],
                           ctx.clock[ctx.pid(diag.row, gj)], y_ready,
                           /*fuse_hop=*/false);
      }

      // --- Pass 2: C -= V * Y on every owned trailing block.
      for (std::size_t id = 0; id < procs; ++id) {
        for (std::size_t bi = k; bi < nbr; ++bi) {
          for (std::size_t bj = k + 1; bj < nbc; ++bj) {
            if (ctx.owner_pid(bi, bj) != id) continue;
            // Next-panel column at panel priority (see pass 1); the
            // priority change also splits it out of the owner's fused
            // update task, so the host waits only for column k + 1.
            ctx.gemm_op(acc[id], id, bj == k + 1 ? kPrioPanel : kPrioUpdate,
                        Trans::No, Trans::No, -1.0, v_key(bi),
                        {kTagY * nbr + bj, k}, 1.0, {kTagA * nbr + bi, bj},
                        0.5 * costs.qr_update *
                            vol_frac(block_len(bi, block, rows),
                                     block_len(bj, block, cols), klen, block));
          }
        }
        ctx.charge(id, std::max(v_ready[id], y_ready[id]), acc[id], "update",
                   ObsOp::kUpdate);
      }
    }
  }

  ctx.finish();
  static_cast<MpReport&>(rep) = ctx.report();
  return rep;
}

}  // namespace hetgrid
