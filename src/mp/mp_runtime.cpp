#include "mp/mp_runtime.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>

#include "core/rebalance.hpp"
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
#include "sim/online_rebalancer.hpp"
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

// Shared state for one distributed execution.
//
// Every real floating-point block op is emitted, in canonical host order,
// into a util/task_graph keyed by (processor, block): the block-versioned
// read/write dependencies alone order the work, so step k+1's panel chain
// overlaps step k's trailing updates. Every read-modify-write chain on one
// block serializes in emission order (WAW), so the arithmetic is
// bit-identical to the graph's serial inline mode (one thread) for any
// thread count. The host synchronizes only where it does inline math
// (host_sync) and at finish().
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
  // Physical location of every persistent block, per matrix tag (A/B/C),
  // kept only while rebalancing — what gather() and the migration source
  // lookup use. owner() covers only live trailing blocks; loc also
  // remembers where finished blocks stayed.
  std::vector<std::vector<std::size_t>> loc;
  std::size_t loc_rows, loc_cols;
  std::size_t reb_applied = 0, reb_blocks = 0;
  // Erases whose block still has in-flight readers/writers; applied once
  // those tasks drain (poll_erases / finish).
  struct PendingErase {
    std::size_t id;
    BlockKey key;
    std::vector<TaskGraph::TaskId> waits;
  };
  std::vector<PendingErase> pending_erases;
  // Declared last: its destructor waits for in-flight tasks, so on unwind
  // it runs before the stores those tasks' closures reference. Heap-held so
  // the lock and ready queue that workers hammer never share a cache line
  // with the host's emission state (`fused` below).
  std::unique_ptr<TaskGraph> graph;

  /// One run over an nbr x nbc block grid (`blk` elements per block side)
  /// whose `tags` persistent matrices (A, or A/B/C for MMM) migrate when
  /// a rebalance acts.
  MpContext(const Machine& m, const Distribution2D& d, std::size_t blk,
            std::size_t nbr, std::size_t nbc, std::size_t tags, TraceSink* s,
            const RuntimeOptions& opts)
      : block(blk), p(d.grid_rows()), q(d.grid_cols()),
        net(p * q, m.net, s), store(p * q), clock(p * q, 0.0),
        busy(p * q, 0.0), sink(s), obs(installed_observation()),
        reb(m, d, opts, nbr, nbc, obs), loc_rows(nbr), loc_cols(nbc) {
    HG_CHECK(p * q <= kMaxProcs, "mp runtime supports at most "
                                     << kMaxProcs << " processors, got "
                                     << p << "x" << q);
    m.net.validate();
    HG_CHECK(m.grid.rows() == p && m.grid.cols() == q,
             "machine grid does not match distribution");
    if (reb.on())
      loc.assign(tags, std::vector<std::size_t>(nbr * nbc, SIZE_MAX));
    graph = std::make_unique<TaskGraph>(opts.threads);
    if (obs != nullptr) graph->set_observe(true);
  }

  void set_step(std::size_t k) {
    step = k;
    net.set_step(k);
    poll_erases();
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
  // block. Any host-side dependency query must flush first — host_sync,
  // finish, and erase_block do.
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
                double weight = 0.0,
                std::uint64_t tag = TaskGraph::kNoTag) {
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

  /// Queues one block-numerics op on processor `id`, declaring the blocks
  /// it reads and writes (a block that is read-modify-written belongs in
  /// `writes` — the write dependency already serializes it against both
  /// the prior writer and prior readers). Views must be resolved by the
  /// caller (on the host thread) so missing-block errors still surface as
  /// clean PreconditionErrors. The op joins the processor's open fusion
  /// group. `reads` / `writes` are brace lists or any BlockKey container.
  template <class Reads = std::initializer_list<BlockKey>,
            class Writes = std::initializer_list<BlockKey>>
  void add_op(std::size_t id, const char* name, int priority,
              const Reads& reads, const Writes& writes,
              std::function<void()> op, double weight = 0.0) {
    std::vector<TaskGraph::Key> r, w;
    r.reserve(reads.size());
    w.reserve(writes.size());
    for (const BlockKey& k : reads) r.push_back(key_of(id, k));
    for (const BlockKey& k : writes) w.push_back(key_of(id, k));
    stage_op(kGroupProc | id, name, priority, std::move(r), std::move(w),
             std::move(op), weight, id);
  }

  /// Blocks the host until every queued op touching `keys` on processor
  /// `id` has finished, and takes synchronous ownership of them — the
  /// partial sync guarding inline host math (panel factorizations).
  /// Unrelated tasks keep running: this is what lets the panel of step k+1
  /// overlap step k's trailing updates. The "mp.barriers" counter counts
  /// these host synchronization points (plus finish()), on the host thread,
  /// so it is deterministic for any thread count.
  void host_sync(std::size_t id, const std::vector<BlockKey>& keys) {
    flush_fused();
    metric_count("mp.barriers", 1);
    std::vector<TaskGraph::Key> w;
    w.reserve(keys.size());
    for (const BlockKey& k : keys) w.push_back(key_of(id, k));
    graph->host_acquire({}, w);
  }

  /// Final synchronization: every queued op completes and all deferred
  /// transient erases are applied. gather() calls it once the copy-out
  /// tasks are queued.
  void finish() {
    flush_fused();
    metric_count("mp.barriers", 1);
    graph->wait_all();
    if (obs != nullptr) obs->tasks = graph->records();
    for (const PendingErase& pe : pending_erases)
      store[pe.id].erase(pe.key);
    pending_erases.clear();
  }

  /// Drops a transient block copy. The erase is deferred while any queued
  /// op still reads or writes the block, so its buffer cannot be recycled
  /// under a running task. Transient keys are step-unique, so a deferred
  /// erase cannot race a re-put of the same key — except through
  /// migration, where a persistent block can leave a processor and land
  /// there again later; copy_block cancels the stale deferral for that
  /// case.
  void erase_block(std::size_t id, BlockKey key) {
    flush_fused();  // pending_on must see every queued op
    std::vector<TaskGraph::TaskId> waits = graph->pending_on(key_of(id, key));
    if (!waits.empty()) {
      pending_erases.push_back(PendingErase{id, key, std::move(waits)});
      return;
    }
    store[id].erase(key);
  }

  void poll_erases() {
    if (pending_erases.empty()) return;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_erases.size(); ++i) {
      PendingErase& pe = pending_erases[i];
      bool drained = true;
      for (const TaskGraph::TaskId t : pe.waits)
        if (!graph->done(t)) {
          drained = false;
          break;
        }
      if (drained) {
        store[pe.id].erase(pe.key);
      } else {
        // Guard against self-move: moving an element onto itself would
        // empty its waits vector, and an empty waits list reads as
        // "drained" on the next poll — freeing a buffer under live tasks.
        if (kept != i) pending_erases[kept] = std::move(pe);
        ++kept;
      }
    }
    pending_erases.resize(kept);
  }

  std::size_t pid(std::size_t gi, std::size_t gj) const {
    return gi * q + gj;
  }
  /// Live owner of block (bi, bj). Kernels only consult this for blocks
  /// at or beyond the current step, where the live lines are always
  /// current (finished panels are reached through loc, not owner()).
  ProcCoord owner(std::size_t bi, std::size_t bj) const {
    return reb.owner(bi, bj);
  }
  std::size_t owner_pid(std::size_t bi, std::size_t bj) const {
    const ProcCoord o = owner(bi, bj);
    return pid(o.row, o.col);
  }
  /// Physical location of a persistent block of matrix tag `which` — where
  /// gather() reads it and migrations pick it up. Equals owner_pid until a
  /// block's line migrates out from under a *finished* panel, which keeps
  /// its blocks (and this entry) in place.
  std::size_t location(std::size_t which, std::size_t bi,
                       std::size_t bj) const {
    if (!reb.on()) return owner_pid(bi, bj);
    return loc[which][bi * loc_cols + bj];
  }
  double cycle_time(std::size_t id) const { return reb.cycle_time(id, step); }

  /// One matrix's trailing sub-rectangle to migrate when a rebalance acts.
  struct MigrateSet {
    std::size_t which;
    std::size_t row_lo, row_hi, col_lo, col_hi;
    bool lower_only;
  };

  /// The panel-boundary rebalance hook: when the rebalancer's re-solve
  /// acts, migrates every block of `sets` whose owner changed. Migrations
  /// are ordinary block copies — kPrioComm tasks that overlap the previous
  /// step's trailing updates; in virtual time the destination clock waits
  /// for the transfer. Everything here runs on the host thread as a pure
  /// function of the boundary snapshot, so the migration schedule is
  /// bit-identical across thread counts.
  void maybe_rebalance(std::size_t k, const RebalanceRegion& region,
                       const std::vector<MigrateSet>& sets) {
    const std::optional<RebalanceDecision> d = reb.replan(k, region);
    if (!d) return;
    metric_count("rebalance.resolves", 1);
    if (!d->act) return;

    // Read at the old owner, write at the new one, erase the stale copy.
    std::vector<double> arrive(p * q, 0.0);
    std::size_t moved = 0;
    for (const MigrateSet& s : sets) {
      for (std::size_t bi = s.row_lo; bi < s.row_hi; ++bi) {
        for (std::size_t bj = s.col_lo; bj < s.col_hi; ++bj) {
          if (s.lower_only && bj > bi) continue;
          std::size_t& cur = loc[s.which][bi * loc_cols + bj];
          const std::size_t dst = owner_pid(bi, bj);
          if (cur == dst) continue;
          const BlockKey key{s.which * loc_rows + bi, bj};
          const double arrival = net.transfer(cur, dst, 1, clock[cur]);
          copy_block(cur, dst, key);
          erase_block(cur, key);
          cur = dst;
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

  /// Lands a copy of `key` (present at `from`) in `to`'s store, recycling
  /// a pooled buffer when one matches the shape: the copy is queued as a
  /// task reading (from, key) and writing (to, key). When the destination
  /// already holds the block (a broadcast restoring an owner's blocks), the
  /// existing buffer is written in place — a put would free a buffer that
  /// pending readers may still be using, and the write dependency already
  /// orders the copy after them.
  void copy_block(std::size_t from, std::size_t to, BlockKey key) {
    const ConstMatrixView src = store[from].at(key);
    // A landing copy re-establishes (to, key) as live: cancel any deferred
    // erase left from an earlier migration away from `to`, or it would
    // drain later (poll_erases is worker-timing dependent) and delete the
    // re-landed block. The stale buffer's readers still order the in-place
    // write below through the (to, key) write dependency.
    if (!pending_erases.empty())
      pending_erases.erase(
          std::remove_if(pending_erases.begin(), pending_erases.end(),
                         [&](const PendingErase& pe) {
                           return pe.id == to && pe.key == key;
                         }),
          pending_erases.end());
    if (!store[to].contains(key))
      store[to].put(key, store[to].acquire(src.rows(), src.cols()));
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
  void ring_broadcast(GridLine line, std::size_t src_pos,
                      const std::vector<BlockKey>& keys, double start,
                      std::vector<double>& ready) {
    const std::size_t src = line.at(src_pos);
    ready[src] = std::max(ready[src], start);
    if (line.len == 1 || keys.empty()) return;
    double upstream = ready[src];
    for (std::size_t hop = 1; hop < line.len; ++hop) {
      const std::size_t from = line.at((src_pos + hop - 1) % line.len);
      const std::size_t to = line.at((src_pos + hop) % line.len);
      const double arrival = net.transfer(from, to, keys.size(), upstream);
      for (const BlockKey& k : keys) copy_block(from, to, k);
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

  /// Observation record for inline host math (panel factorizations): keeps
  /// the weighted critical path connected across the host_sync that cut
  /// the key history. No-op unless observing.
  void note_host_work(std::size_t id, const std::vector<BlockKey>& keys,
                      double seconds, const char* name) {
    if (obs == nullptr) return;
    std::vector<TaskGraph::Key> w;
    w.reserve(keys.size());
    for (const BlockKey& k : keys) w.push_back(key_of(id, k));
    graph->note_host_work(w, seconds, name, id);
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

// One global matrix to distribute. Its blocks are tagged `which` in the
// stores (block keys get a row offset of which * nbr) to tell A/B/C
// apart. `zero` starts every block at 0.0 instead of copying `src`, which
// then gives only the shape (MMM's C accumulator).
struct Scattered {
  std::size_t which;
  ConstMatrixView src;
  bool zero = false;
};

// One block moved between a store and a caller's matrix by a scatter or
// gather task; `zero` (scatter only) fills dst with 0.0 instead.
struct BlockCopy {
  ConstMatrixView src;
  MatrixView dst;
  bool zero = false;
};

// Distributes `mats` to their owners, timing-free as in ScaLAPACK, where
// data is assumed distributed from the start: no clock, message or trace
// event moves. The host only allocates each owned block, unwritten; one
// fused zero-weight mp.scatter task per owner, at communication priority,
// fills them on the owner's lane, so the owners fill in parallel and step
// 0's ops start as soon as their own blocks land.
void scatter(MpContext& ctx, std::initializer_list<Scattered> mats,
             std::size_t nbr, std::size_t nbc) {
  const std::size_t procs = ctx.p * ctx.q;
  // Every matrix's owned blocks plus one row and one column panel of
  // transient copies.
  std::vector<std::size_t> owned(procs, 0);
  for (std::size_t bi = 0; bi < nbr; ++bi)
    for (std::size_t bj = 0; bj < nbc; ++bj)
      owned[ctx.owner_pid(bi, bj)] += mats.size();
  for (std::size_t id = 0; id < procs; ++id)
    ctx.store[id].reserve(owned[id] + nbr + nbc);

  std::vector<std::vector<BlockKey>> keys(procs);
  std::vector<std::vector<BlockCopy>> copies(procs);
  for (const Scattered& s : mats) {
    for (std::size_t bi = 0; bi < nbr; ++bi) {
      const std::size_t ilo = block_lo(bi, ctx.block);
      const std::size_t ilen = block_len(bi, ctx.block, s.src.rows());
      for (std::size_t bj = 0; bj < nbc; ++bj) {
        const std::size_t jlo = block_lo(bj, ctx.block);
        const std::size_t jlen = block_len(bj, ctx.block, s.src.cols());
        const std::size_t id = ctx.owner_pid(bi, bj);
        const BlockKey key{s.which * nbr + bi, bj};
        if (s.which < ctx.loc.size())
          ctx.loc[s.which][bi * ctx.loc_cols + bj] = id;
        ctx.store[id].put(key, Matrix::uninitialized(ilen, jlen));
        keys[id].push_back(key);
        copies[id].push_back(BlockCopy{s.src.block(ilo, jlo, ilen, jlen),
                                       ctx.store[id].at(key), s.zero});
      }
    }
  }
  for (std::size_t id = 0; id < procs; ++id) {
    if (copies[id].empty()) continue;
    ctx.add_op(id, "mp.scatter", kPrioComm, std::initializer_list<BlockKey>{},
               keys[id], [copies = std::move(copies[id])] {
                 for (const BlockCopy& c : copies) {
                   if (c.zero)
                     c.dst.fill(0.0);
                   else
                     c.dst.copy_from(c.src);
                 }
               });
  }
}

// Copies matrix `which` back into `m` from wherever its blocks finally
// live: one mp.gather task per holder at communication priority, then
// finish(), so every write to `m` lands before the run returns.
void gather(MpContext& ctx, MatrixView m, std::size_t which,
            std::size_t nbr, std::size_t nbc) {
  const std::size_t procs = ctx.p * ctx.q;
  std::vector<std::vector<BlockKey>> keys(procs);
  std::vector<std::vector<BlockCopy>> copies(procs);
  for (std::size_t bi = 0; bi < nbr; ++bi) {
    const std::size_t ilo = block_lo(bi, ctx.block);
    const std::size_t ilen = block_len(bi, ctx.block, m.rows());
    for (std::size_t bj = 0; bj < nbc; ++bj) {
      const std::size_t jlo = block_lo(bj, ctx.block);
      const std::size_t jlen = block_len(bj, ctx.block, m.cols());
      const std::size_t id = ctx.location(which, bi, bj);
      const BlockKey key{which * nbr + bi, bj};
      keys[id].push_back(key);
      copies[id].push_back(
          BlockCopy{ctx.store[id].at(key), m.block(ilo, jlo, ilen, jlen)});
    }
  }
  for (std::size_t id = 0; id < procs; ++id) {
    if (copies[id].empty()) continue;
    ctx.add_op(id, "mp.gather", kPrioComm, keys[id],
               std::initializer_list<BlockKey>{},
               [copies = std::move(copies[id])] {
                 for (const BlockCopy& c : copies) c.dst.copy_from(c.src);
               });
  }
  ctx.finish();
}

constexpr std::size_t kTagA = 0, kTagB = 1, kTagC = 2;
// QR-only transients: the larft T factor, the unit-lower diagonal V block,
// per-grid-row partial W accumulators, and the reduced Y = T^T W panels.
constexpr std::size_t kTagT = 3, kTagV = 4, kTagW = 5, kTagY = 6;

// Element-wise dst += src for the QR W-reduction (runs on the reduction
// root's task lane, in ascending contributor order, so the summation order
// is identical for any thread count).
void add_in_place(const ConstMatrixView& src, MatrixView dst) {
  for (std::size_t j = 0; j < dst.cols(); ++j)
    for (std::size_t i = 0; i < dst.rows(); ++i) dst(i, j) += src(i, j);
}

// The gathered panel phase shared by QR and pivoted LU. Block column k's
// panel (block rows [k, nbr) of A, all in grid column diag.col) is gathered
// to the diagonal owner `diag_id` — off-owner blocks take one feeder hop
// each — then factored there on the host by `factor`, written back into the
// owner's copies, and charged `weight` (a KernelCosts entry) per panel
// block. All panel arithmetic is serial host-side math, so the factors are
// bit-identical for any thread count. The host waits only for the ops
// touching the panel blocks at the diagonal owner (the feeder copies and
// the owner's own previous trailing updates); everything else keeps
// running. `keys` receives the panel's block keys for the ring back down
// the grid column, which the caller sends.
template <class Factor>
void factor_panel(MpContext& ctx, std::size_t k, std::size_t nbr,
                  std::size_t rows, std::size_t klen, std::size_t diag_id,
                  double weight, std::vector<BlockKey>& keys,
                  Factor&& factor) {
  const std::size_t block = ctx.block;
  const std::size_t klo = block_lo(k, block);
  double gather_ready = ctx.clock[diag_id];
  keys.clear();
  for (std::size_t bi = k; bi < nbr; ++bi) {
    const std::size_t from = ctx.owner_pid(bi, k);
    const double arrival = ctx.feeder(from, diag_id,
                                      BlockKey{kTagA * nbr + bi, k},
                                      ctx.clock[from]);
    gather_ready = std::max(gather_ready, arrival);
    keys.push_back(BlockKey{kTagA * nbr + bi, k});
  }

  ctx.host_sync(diag_id, keys);
  Matrix panel = Matrix::uninitialized(rows - klo, klen);
  for (std::size_t bi = k; bi < nbr; ++bi) {
    const std::size_t ilen = block_len(bi, block, rows);
    panel.view()
        .block(block_lo(bi, block) - klo, 0, ilen, klen)
        .copy_from(ctx.store[diag_id].at(BlockKey{kTagA * nbr + bi, k}));
  }
  factor(panel.view());
  double panel_work = 0.0, panel_units = 0.0;
  for (std::size_t bi = k; bi < nbr; ++bi) {
    const std::size_t ilen = block_len(bi, block, rows);
    ctx.store[diag_id]
        .at(BlockKey{kTagA * nbr + bi, k})
        .copy_from(
            panel.view().block(block_lo(bi, block) - klo, 0, ilen, klen));
    panel_units += weight * vol_frac(ilen, klen, klen, block);
    panel_work +=
        ctx.cycle_time(diag_id) * weight * vol_frac(ilen, klen, klen, block);
  }
  ctx.compute(diag_id, gather_ready, panel_work, "panel", ObsOp::kPanel,
              panel_units);
  ctx.note_host_work(diag_id, keys, panel_work, "panel");
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
    return ctx.location(kTagA, row / block, bj);
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
  std::vector<std::pair<std::size_t, BlockKey>> transients;
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
      if (from == to || std::find(transients.begin(), transients.end(),
                                  copy) != transients.end())
        continue;
      ctx.copy_block(from, to, key);
      transients.push_back(copy);
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
        rows.push_back(RowMove{ctx.store[id].at(from_key),
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
  for (const auto& [id, key] : transients) ctx.erase_block(id, key);
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
  // The ring-source tables below hold one entry per grid line.
  constexpr std::size_t kMaxLines = 64;
  HG_CHECK(dist.grid_rows() <= kMaxLines && dist.grid_cols() <= kMaxLines,
           "run_mp_mmm supports grids up to " << kMaxLines << "x" << kMaxLines
                                              << ", got " << dist.grid_rows()
                                              << "x" << dist.grid_cols());
  const std::size_t nb = block_count(n, block);
  MpContext ctx(machine, dist, block, nb, nb, 3, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  // C's blocks start at zero; the caller's C is never read.
  scatter(ctx, {{kTagA, a}, {kTagB, b}, {kTagC, c, true}}, nb, nb);

  std::vector<double> a_ready(procs), b_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  std::vector<double> row_start(ctx.p), col_start(ctx.q);
  std::vector<std::size_t> a_src(ctx.p, 0), b_src(ctx.q, 0);
  std::vector<char> need_rows(ctx.p), need_cols(ctx.q);

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    // Rebalance over the full C sweep (every step updates all of C); an
    // owner change drags the C block plus the A/B panels still to come.
    ctx.maybe_rebalance(
        k,
        RebalanceRegion{0, nb, 0, nb, false, static_cast<double>(nb - k),
                        0.0, 3.0},
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
    bool a_src_set_row[kMaxLines] = {};
    for (std::size_t bi = 0; bi < nb; ++bi) {
      const BlockKey key{kTagA * nb + bi, k};
      const ProcCoord home = ctx.owner(bi, k);
      std::fill(need_rows.begin(), need_rows.end(), 0);
      for (std::size_t bj = 0; bj < nb; ++bj)
        need_rows[ctx.owner(bi, bj).row] = 1;
      for (std::size_t gi = 0; gi < ctx.p; ++gi) {
        if (!need_rows[gi]) continue;
        if (!a_src_set_row[gi]) {
          a_src[gi] = home.col;
          a_src_set_row[gi] = true;
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
    bool b_src_set_col[kMaxLines] = {};
    for (std::size_t bj = 0; bj < nb; ++bj) {
      const BlockKey key{kTagB * nb + k, bj};
      const ProcCoord home = ctx.owner(k, bj);
      std::fill(need_cols.begin(), need_cols.end(), 0);
      for (std::size_t bi = 0; bi < nb; ++bi)
        need_cols[ctx.owner(bi, bj).col] = 1;
      for (std::size_t gj = 0; gj < ctx.q; ++gj) {
        if (!need_cols[gj]) continue;
        if (!b_src_set_col[gj]) {
          b_src[gj] = home.row;
          b_src_set_col[gj] = true;
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
    const std::size_t klen = block_len(k, block, n);
    for (std::size_t id = 0; id < procs; ++id) {
      double work = 0.0, units = 0.0;
      const double ready = std::max(a_ready[id], b_ready[id]);
      for (std::size_t bi = 0; bi < nb; ++bi) {
        for (std::size_t bj = 0; bj < nb; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          const std::size_t ilen = block_len(bi, block, n);
          const std::size_t jlen = block_len(bj, block, n);
          const BlockKey a_key{kTagA * nb + bi, k};
          const BlockKey b_key{kTagB * nb + k, bj};
          const BlockKey c_key{kTagC * nb + bi, bj};
          const ConstMatrixView av = ctx.store[id].at(a_key);
          const ConstMatrixView bv = ctx.store[id].at(b_key);
          const MatrixView cv = ctx.store[id].at(c_key);
          const double op_units =
              costs.update * vol_frac(ilen, jlen, klen, block);
          ctx.add_op(id, "mp.gemm", kPrioUpdate, {a_key, b_key}, {c_key},
                     [av, bv, cv] {
                       gemm(Trans::No, Trans::No, 1.0, av, bv, 1.0, cv);
                     },
                     ctx.cycle_time(id) * op_units);
          units += op_units;
          work += ctx.cycle_time(id) * op_units;
        }
      }
      if (work > 0.0)
        ctx.compute(id, ready, work, "update", ObsOp::kUpdate, units);
    }

    // Drop transient panel copies (keep owned originals).
    for (std::size_t id = 0; id < procs; ++id) {
      for (std::size_t bi = 0; bi < nb; ++bi)
        if (ctx.owner_pid(bi, k) != id)
          ctx.erase_block(id, BlockKey{kTagA * nb + bi, k});
      for (std::size_t bj = 0; bj < nb; ++bj)
        if (ctx.owner_pid(k, bj) != id)
          ctx.erase_block(id, BlockKey{kTagB * nb + k, bj});
    }
  }

  gather(ctx, c, kTagC, nb, nb);
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
  MpContext ctx(machine, dist, block, nb, nb, 1, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, {{kTagA, a}}, nb, nb);
  MpLuReport rep;
  if (pivoted) rep.piv.resize(n);
  bool singular = false;
  std::vector<BlockKey> panel_keys;

  std::vector<double> diag_ready(procs), l_ready(procs), u_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  // Lookahead: virtual time deferred from the previous step's non-critical
  // trailing work (the arithmetic itself always runs in canonical order).
  std::vector<double> deferred(procs, 0.0);
  std::vector<double> deferred_ready(procs, 0.0);
  std::vector<double> deferred_units(procs, 0.0);

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    // Rebalance the trailing submatrix [k, nb)^2; the shrinking trailing
    // sweep repays migration over roughly (nb - k) / 3 full sweeps.
    ctx.maybe_rebalance(
        k,
        RebalanceRegion{k, nb, k, nb, false,
                        static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
        {{kTagA, k, nb, k, nb, false}});
    const std::size_t klen = block_len(k, block, n);
    const ProcCoord diag = ctx.owner(k, k);
    const std::size_t diag_id = ctx.pid(diag.row, diag.col);
    const BlockKey diag_key{kTagA * nb + k, k};

    std::vector<std::size_t> swap_src;
    if (pivoted) {
      // --- Pivoted panel phase: the whole panel column is gathered to the
      // diagonal owner, factored there with partial pivoting, and ringed
      // back down its grid column (run_mp_qr's panel sequence).
      LuResult pres;
      factor_panel(ctx, k, nb, n, klen, diag_id, costs.panel_factor,
                   panel_keys, [&pres](MatrixView panel) {
                     pres = lu_factor_unblocked(panel);
                   });
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
    } else {
      // --- Factor the diagonal block at its owner (host thread: its result
      // gates everything below). The host waits only for the ops touching
      // this one block — the previous step's other trailing updates keep
      // running underneath the factorization, the wall-clock lookahead
      // overlap.
      ctx.host_sync(diag_id, {diag_key});
      if (!lu_factor_nopivot(ctx.store[diag_id].at(diag_key))) {
        gather(ctx, a, kTagA, nb, nb);
        static_cast<MpReport&>(rep) = ctx.report();
        rep.factorized = false;
        return rep;
      }
      const double panel_units =
          costs.panel_factor * vol_frac(klen, klen, klen, block);
      ctx.compute(diag_id, 0.0, ctx.cycle_time(diag_id) * panel_units, "panel",
                  ObsOp::kPanel, panel_units);
      ctx.note_host_work(diag_id, {diag_key},
                         ctx.cycle_time(diag_id) * panel_units, "panel");

      // --- Broadcast the diagonal block down its grid column (for the L21
      // solves) and note its availability.
      std::fill(diag_ready.begin(), diag_ready.end(), 0.0);
      ctx.ring_broadcast(ctx.grid_col(diag.col), diag.row, {diag_key},
                         ctx.clock[diag_id], diag_ready);

      // --- L21 solves: owners of blocks (I, k), I > k. One task lane per
      // owner; every lane reads its own diag copy and writes its own blocks.
      for (std::size_t bi = k + 1; bi < nb; ++bi) {
        const std::size_t id = ctx.owner_pid(bi, k);
        const std::size_t ilen = block_len(bi, block, n);
        const BlockKey l_key{kTagA * nb + bi, k};
        const ConstMatrixView dv = ctx.store[id].at(diag_key);
        const MatrixView lv = ctx.store[id].at(l_key);
        const double op_units =
            costs.panel_factor * vol_frac(ilen, klen, klen, block);
        ctx.add_op(id, "mp.trsm", kPrioSolve, {diag_key}, {l_key},
                   [dv, lv] { trsm_right_upper(dv, lv); },
                   ctx.cycle_time(id) * op_units);
        ctx.compute(id, diag_ready[id], ctx.cycle_time(id) * op_units,
                    "l-solve", ObsOp::kSolve, op_units);
      }
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
    for (std::size_t bj = k + 1; bj < nb; ++bj) {
      const std::size_t id = ctx.owner_pid(k, bj);
      const std::size_t jlen = block_len(bj, block, n);
      const BlockKey u_key{kTagA * nb + k, bj};
      const ConstMatrixView dv = ctx.store[id].at(diag_key);
      const MatrixView uv = ctx.store[id].at(u_key);
      const double op_units = costs.trsm * vol_frac(klen, jlen, klen, block);
      ctx.add_op(id, "mp.trsm", kPrioSolve, {diag_key}, {u_key},
                 [dv, uv] { trsm_left_lower_unit(dv, uv); },
                 ctx.cycle_time(id) * op_units);
      ctx.compute(id, l_ready[id], ctx.cycle_time(id) * op_units, "u-solve",
                  ObsOp::kSolve, op_units);
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
    for (std::size_t id = 0; id < procs; ++id) {
      if (deferred[id] > 0.0) {
        ctx.compute(id, deferred_ready[id], deferred[id], "update-deferred",
                    ObsOp::kUpdate, deferred_units[id]);
        deferred[id] = 0.0;
        deferred_ready[id] = 0.0;
        deferred_units[id] = 0.0;
      }
    }

    // --- Trailing updates A_IJ -= L_Ik * U_kJ on owned blocks. With
    // lookahead, the blocks the next panel needs (block column/row k+1)
    // are charged on the critical path now; the rest is deferred to after
    // the next step's panel phase. The deferral is pure virtual-time
    // bookkeeping — the GEMM tasks are always emitted in this step, in
    // canonical order per processor.
    for (std::size_t id = 0; id < procs; ++id) {
      double work_next = 0.0, work_rest = 0.0;
      double units_next = 0.0, units_rest = 0.0;
      const double ready = std::max(l_ready[id], u_ready[id]);
      for (std::size_t bi = k + 1; bi < nb; ++bi) {
        for (std::size_t bj = k + 1; bj < nb; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          const std::size_t ilen = block_len(bi, block, n);
          const std::size_t jlen = block_len(bj, block, n);
          const BlockKey l_key{kTagA * nb + bi, k};
          const BlockKey u_key{kTagA * nb + k, bj};
          const BlockKey t_key{kTagA * nb + bi, bj};
          const ConstMatrixView lv = ctx.store[id].at(l_key);
          const ConstMatrixView uv = ctx.store[id].at(u_key);
          const MatrixView tv = ctx.store[id].at(t_key);
          // Next-panel blocks (column / row k + 1) run at panel priority
          // so the graph releases step k + 1's critical chain first — the
          // wall-clock counterpart of the virtual-time lookahead below.
          const int prio = (bi == k + 1 || bj == k + 1) ? kPrioPanel
                                                        : kPrioUpdate;
          const double op_units =
              costs.update * vol_frac(ilen, jlen, klen, block);
          ctx.add_op(id, "mp.gemm", prio, {l_key, u_key}, {t_key},
                     [lv, uv, tv] {
                       gemm(Trans::No, Trans::No, -1.0, lv, uv, 1.0, tv);
                     },
                     ctx.cycle_time(id) * op_units);
          const double cost = ctx.cycle_time(id) * op_units;
          if (lookahead && bi != k + 1 && bj != k + 1) {
            work_rest += cost;
            units_rest += op_units;
          } else {
            work_next += cost;
            units_next += op_units;
          }
        }
      }
      if (work_next > 0.0)
        ctx.compute(id, ready, work_next, "update", ObsOp::kUpdate,
                    units_next);
      if (work_rest > 0.0) {
        deferred[id] += work_rest;
        deferred_units[id] += units_rest;
        deferred_ready[id] = std::max(deferred_ready[id], ready);
      }
    }

    // --- Drop transient copies of this step's panels.
    for (std::size_t id = 0; id < procs; ++id) {
      for (std::size_t bi = k; bi < nb; ++bi)
        if (ctx.owner_pid(bi, k) != id)
          ctx.erase_block(id, BlockKey{kTagA * nb + bi, k});
      for (std::size_t bj = k + 1; bj < nb; ++bj)
        if (ctx.owner_pid(k, bj) != id)
          ctx.erase_block(id, BlockKey{kTagA * nb + k, bj});
    }
  }

  gather(ctx, a, kTagA, nb, nb);
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

  scatter(ctx, {{kTagA, a}}, nb, nb);

  std::vector<double> diag_ready(procs), l_ready(procs), c_ready(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p);

  for (std::size_t k = 0; k < nb; ++k) {
    ctx.set_step(k);
    // Rebalance the lower trailing triangle (Cholesky touches only
    // bj <= bi); row_lo == col_lo keeps the triangle test aligned.
    ctx.maybe_rebalance(
        k,
        RebalanceRegion{k, nb, k, nb, true,
                        static_cast<double>(nb - k) / 3.0, 0.0, 1.0},
        {{kTagA, k, nb, k, nb, true}});
    const std::size_t klen = block_len(k, block, n);
    const ProcCoord diag = ctx.owner(k, k);
    const std::size_t diag_id = ctx.pid(diag.row, diag.col);
    const BlockKey diag_key{kTagA * nb + k, k};

    // --- Factor the diagonal block (host thread; it waits only for the
    // ops touching this block, overlapping the rest of the previous step's
    // trailing update).
    ctx.host_sync(diag_id, {diag_key});
    if (!cholesky_factor_unblocked(ctx.store[diag_id].at(diag_key))) {
      gather(ctx, a, kTagA, nb, nb);
      MpReport rep = ctx.report();
      rep.factorized = false;
      return rep;
    }
    const double panel_units =
        costs.chol_factor * vol_frac(klen, klen, klen, block);
    ctx.compute(diag_id, 0.0, ctx.cycle_time(diag_id) * panel_units, "panel",
                ObsOp::kPanel, panel_units);
    ctx.note_host_work(diag_id, {diag_key},
                       ctx.cycle_time(diag_id) * panel_units, "panel");

    // --- Diagonal block down its grid column for the L21 solves.
    std::fill(diag_ready.begin(), diag_ready.end(), 0.0);
    ctx.ring_broadcast(ctx.grid_col(diag.col), diag.row, {diag_key},
                       ctx.clock[diag_id], diag_ready);

    // --- L21 solves: A_Ik := A_Ik * inv(L11)^T, one task lane per owner.
    for (std::size_t bi = k + 1; bi < nb; ++bi) {
      const std::size_t id = ctx.owner_pid(bi, k);
      const std::size_t ilen = block_len(bi, block, n);
      const BlockKey l_key{kTagA * nb + bi, k};
      const ConstMatrixView dv = ctx.store[id].at(diag_key);
      const MatrixView lv = ctx.store[id].at(l_key);
      const double op_units =
          costs.chol_factor * vol_frac(ilen, klen, klen, block);
      ctx.add_op(id, "mp.trsm", kPrioSolve, {diag_key}, {l_key},
                 [dv, lv] { trsm_right_lower_transposed(dv, lv); },
                 ctx.cycle_time(id) * op_units);
      ctx.compute(id, diag_ready[id], ctx.cycle_time(id) * op_units,
                  "l-solve", ObsOp::kSolve, op_units);
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
      double work = 0.0, units = 0.0;
      const double ready = std::max(l_ready[id], c_ready[id]);
      for (std::size_t bi = k + 1; bi < nb; ++bi) {
        for (std::size_t bj = k + 1; bj <= bi; ++bj) {
          if (ctx.owner_pid(bi, bj) != id) continue;
          const std::size_t ilen = block_len(bi, block, n);
          const std::size_t jlen = block_len(bj, block, n);
          const BlockKey li_key{kTagA * nb + bi, k};
          const BlockKey lj_key{kTagA * nb + bj, k};
          const BlockKey t_key{kTagA * nb + bi, bj};
          const ConstMatrixView li = ctx.store[id].at(li_key);
          const ConstMatrixView lj = ctx.store[id].at(lj_key);
          const MatrixView tv = ctx.store[id].at(t_key);
          const int prio = bj == k + 1 ? kPrioPanel : kPrioUpdate;
          const double op_units =
              costs.update * vol_frac(ilen, jlen, klen, block);
          ctx.add_op(id, "mp.gemm", prio, {li_key, lj_key}, {t_key},
                     [li, lj, tv] {
                       gemm(Trans::No, Trans::Yes, -1.0, li, lj, 1.0, tv);
                     },
                     ctx.cycle_time(id) * op_units);
          units += op_units;
          work += ctx.cycle_time(id) * op_units;
        }
      }
      if (work > 0.0)
        ctx.compute(id, ready, work, "update", ObsOp::kUpdate, units);
    }

    // --- Drop transient copies of the panel.
    for (std::size_t id = 0; id < procs; ++id)
      for (std::size_t bi = k; bi < nb; ++bi)
        if (ctx.owner_pid(bi, k) != id)
          ctx.erase_block(id, BlockKey{kTagA * nb + bi, k});
  }

  gather(ctx, a, kTagA, nb, nb);
  return ctx.report();
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
  MpContext ctx(machine, dist, block, nbr, nbc, 1, sink, opts);
  const std::size_t procs = ctx.p * ctx.q;

  scatter(ctx, {{kTagA, a}}, nbr, nbc);
  MpQrReport rep;
  rep.tau.reserve(cols);

  std::vector<double> col_ready(procs), v_ready(procs), y_ready(procs);
  std::vector<double> work_acc(procs), units_acc(procs);
  std::vector<std::vector<BlockKey>> row_keys(ctx.p), col_keys(ctx.q);
  std::vector<char> contrib(ctx.p);

  for (std::size_t k = 0; k < nbc; ++k) {
    ctx.set_step(k);
    // Rebalance the trailing panel + update region. Note: migrating under
    // QR regroups the W-reduction by the *new* grid rows, so a rebalanced
    // run's bits differ from the static plan's (still deterministic and
    // residual-accurate; see doc/rebalance.md).
    ctx.maybe_rebalance(
        k,
        RebalanceRegion{k, nbr, k, nbc, false,
                        static_cast<double>(nbc - k) / 3.0, 0.0, 1.0},
        {{kTagA, k, nbr, k, nbc, false}});
    const std::size_t klen = block_len(k, block, cols);
    const ProcCoord diag = ctx.owner(k, k);
    const std::size_t diag_id = ctx.pid(diag.row, diag.col);
    const BlockKey diag_key{kTagA * nbr + k, k};
    const BlockKey t_key{kTagT * nbr + k, k};
    const BlockKey v0_key{kTagV * nbr + k, k};

    // Grid rows holding any panel / trailing block row this step. With an
    // aligned distribution owner(bi, .).row is bj-independent.
    std::fill(contrib.begin(), contrib.end(), 0);
    for (std::size_t bi = k; bi < nbr; ++bi)
      contrib[ctx.owner(bi, k).row] = 1;

    // --- Gather the column panel to the diagonal owner and factor it there
    // on the host; the factorization also builds the block-reflector factor
    // T when a trailing update will need it.
    const bool has_trailing = k + 1 < nbc;
    Matrix t;
    std::vector<BlockKey> panel_keys;
    factor_panel(ctx, k, nbr, rows, klen, diag_id, costs.qr_factor,
                 panel_keys, [&](MatrixView pv) {
                   const QrResult pres =
                       qr_factor(pv, has_trailing ? &t : nullptr);
                   rep.tau.insert(rep.tau.end(), pres.tau.begin(),
                                  pres.tau.end());
                 });

    if (has_trailing) {
      // T, kept at the diagonal owner and shipped along grid row diag.row
      // with the V panel below.
      ctx.store[diag_id].put(t_key, std::move(t));
      const double t_units =
          costs.qr_update * vol_frac(klen, klen, klen, block);
      ctx.compute(diag_id, 0.0, ctx.cycle_time(diag_id) * t_units, "t-form",
                  ObsOp::kAux, t_units);
      ctx.note_host_work(diag_id, {t_key},
                         ctx.cycle_time(diag_id) * t_units, "t-form");
    }

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
        const ConstMatrixView dv = ctx.store[id].at(diag_key);
        ctx.store[id].put(v0_key, ctx.store[id].acquire(dv.rows(), klen));
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
      // W keys carry the step in their column so a deferred erase of step
      // k's partials can never collide with step k + 1 re-creating them.
      std::fill(work_acc.begin(), work_acc.end(), 0.0);
      std::fill(units_acc.begin(), units_acc.end(), 0.0);
      for (std::size_t bj = k + 1; bj < nbc; ++bj) {
        const std::size_t gj = ctx.owner(k, bj).col;
        const std::size_t jlen = block_len(bj, block, cols);
        for (std::size_t gi = 0; gi < ctx.p; ++gi) {
          if (!contrib[gi]) continue;
          const std::size_t id = ctx.pid(gi, gj);
          const BlockKey w_key{kTagW * nbr + bj, k * ctx.p + gi};
          ctx.store[id].put(w_key, ctx.store[id].acquire(klen, jlen));
          const MatrixView wv = ctx.store[id].at(w_key);
          double beta = 0.0;
          for (std::size_t bi = k; bi < nbr; ++bi) {
            if (ctx.owner(bi, k).row != gi) continue;
            const std::size_t ilen = block_len(bi, block, rows);
            const BlockKey v_key =
                bi == k ? v0_key : BlockKey{kTagA * nbr + bi, k};
            const BlockKey c_key{kTagA * nbr + bi, bj};
            const ConstMatrixView vv = ctx.store[id].at(v_key);
            const ConstMatrixView cv = ctx.store[id].at(c_key);
            const double op_units = 0.5 * costs.qr_update *
                                    vol_frac(ilen, jlen, klen, block);
            // Column k + 1 feeds the next panel: it runs at panel priority
            // (pass 2 below too) so the host's factorization of panel k + 1
            // overlaps the rest of this step's update, as in LU and
            // Cholesky.
            const int prio = bj == k + 1 ? kPrioPanel : kPrioUpdate;
            ctx.add_op(id, "mp.gemm", prio, {v_key, c_key}, {w_key},
                       [vv, cv, wv, beta] {
                         gemm(Trans::Yes, Trans::No, 1.0, vv, cv, beta, wv);
                       },
                       ctx.cycle_time(id) * op_units);
            beta = 1.0;
            units_acc[id] += op_units;
            work_acc[id] += ctx.cycle_time(id) * op_units;
          }
          HG_INTERNAL_CHECK(beta == 1.0,
                            "QR W partial has no contributing block row");
        }
      }
      for (std::size_t id = 0; id < procs; ++id)
        if (work_acc[id] > 0.0)
          ctx.compute(id, v_ready[id], work_acc[id], "w-accumulate",
                      ObsOp::kUpdate, units_acc[id]);

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
          const ConstMatrixView pv = ctx.store[root].at(w_key);
          ctx.add_op(root, "mp.add", kPrioSolve, {w_key}, {w_root_key},
                     [pv, w_root] { add_in_place(pv, w_root); });
        }
        // Y keys carry the step in their column for the same
        // erase-vs-reuse reason as the W partials.
        const BlockKey y_key{kTagY * nbr + bj, k};
        Matrix ybuf = ctx.store[root].acquire(klen, jlen);
        ctx.store[root].put(y_key, std::move(ybuf));
        const MatrixView yv = ctx.store[root].at(y_key);
        const ConstMatrixView tv = ctx.store[root].at(t_key);
        const ConstMatrixView wcv = ctx.store[root].at(w_root_key);
        // beta = 0 overwrites whatever the recycled buffer held.
        const double op_units =
            costs.qr_update * vol_frac(klen, jlen, klen, block);
        ctx.add_op(root, "mp.gemm", kPrioSolve, {t_key, w_root_key},
                   {y_key},
                   [tv, wcv, yv] {
                     gemm(Trans::Yes, Trans::No, 1.0, tv, wcv, 0.0, yv);
                   },
                   ctx.cycle_time(root) * op_units);
        ctx.compute(root, reduce_ready, ctx.cycle_time(root) * op_units,
                    "w-reduce", ObsOp::kUpdate, op_units);
      }

      // --- Y back out along each grid column that owns trailing columns.
      std::fill(y_ready.begin(), y_ready.end(), 0.0);
      for (auto& v : col_keys) v.clear();
      for (std::size_t bj = k + 1; bj < nbc; ++bj)
        col_keys[ctx.owner(k, bj).col].push_back(
            BlockKey{kTagY * nbr + bj, k});
      for (std::size_t gj = 0; gj < ctx.q; ++gj) {
        if (col_keys[gj].empty()) continue;
        ctx.ring_broadcast(ctx.grid_col(gj), diag.row, col_keys[gj],
                           ctx.clock[ctx.pid(diag.row, gj)], y_ready);
      }

      // --- Pass 2: C -= V * Y on every owned trailing block.
      std::fill(work_acc.begin(), work_acc.end(), 0.0);
      std::fill(units_acc.begin(), units_acc.end(), 0.0);
      for (std::size_t id = 0; id < procs; ++id) {
        for (std::size_t bi = k; bi < nbr; ++bi) {
          for (std::size_t bj = k + 1; bj < nbc; ++bj) {
            if (ctx.owner_pid(bi, bj) != id) continue;
            const std::size_t ilen = block_len(bi, block, rows);
            const std::size_t jlen = block_len(bj, block, cols);
            const BlockKey v_key =
                bi == k ? v0_key : BlockKey{kTagA * nbr + bi, k};
            const BlockKey y_key{kTagY * nbr + bj, k};
            const BlockKey c_key{kTagA * nbr + bi, bj};
            const ConstMatrixView vv = ctx.store[id].at(v_key);
            const ConstMatrixView yv = ctx.store[id].at(y_key);
            const MatrixView cv = ctx.store[id].at(c_key);
            const double op_units = 0.5 * costs.qr_update *
                                    vol_frac(ilen, jlen, klen, block);
            // Next-panel column at panel priority (see pass 1); the
            // priority change also splits it out of the owner's fused
            // update task, so the host waits only for column k + 1.
            const int prio = bj == k + 1 ? kPrioPanel : kPrioUpdate;
            ctx.add_op(id, "mp.gemm", prio, {v_key, y_key}, {c_key},
                       [vv, yv, cv] {
                         gemm(Trans::No, Trans::No, -1.0, vv, yv, 1.0, cv);
                       },
                       ctx.cycle_time(id) * op_units);
            units_acc[id] += op_units;
            work_acc[id] += ctx.cycle_time(id) * op_units;
          }
        }
        if (work_acc[id] > 0.0)
          ctx.compute(id, std::max(v_ready[id], y_ready[id]), work_acc[id],
                      "update", ObsOp::kUpdate, units_acc[id]);
      }
    }

    // --- Drop this step's transients (erase is a no-op on absent keys).
    for (std::size_t id = 0; id < procs; ++id) {
      for (std::size_t bi = k; bi < nbr; ++bi)
        if (ctx.owner_pid(bi, k) != id)
          ctx.erase_block(id, BlockKey{kTagA * nbr + bi, k});
      ctx.erase_block(id, t_key);
      ctx.erase_block(id, v0_key);
      for (std::size_t bj = k + 1; bj < nbc; ++bj) {
        for (std::size_t gi = 0; gi < ctx.p; ++gi)
          ctx.erase_block(id, BlockKey{kTagW * nbr + bj, k * ctx.p + gi});
        ctx.erase_block(id, BlockKey{kTagY * nbr + bj, k});
      }
    }
  }

  gather(ctx, a, kTagA, nbr, nbc);
  static_cast<MpReport&>(rep) = ctx.report();
  return rep;
}

}  // namespace hetgrid
