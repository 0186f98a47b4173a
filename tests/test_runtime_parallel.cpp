// Tests for the parallel numerics: the message-passing runtime's
// serial/parallel bit-identity where tests/test_task_graph.cpp does not
// already pin it (misaligned layouts, threads = 0, kernels computing in
// place on sub-views), the packed GEMM path and its kernel dispatch, and
// the block-store hash/pool upgrades that ride along with it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/drift.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "kernel_dispatch.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "mp/block_store.hpp"
#include "mp/mp_runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- helpers

bool same_bits(const ConstMatrixView& a, const ConstMatrixView& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j), y = b(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << "event " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "event " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "event " << i;
    EXPECT_EQ(a[i].step, b[i].step) << "event " << i;
    EXPECT_EQ(a[i].blocks, b[i].blocks) << "event " << i;
    EXPECT_EQ(a[i].peer, b[i].peer) << "event " << i;
    EXPECT_EQ(a[i].name, b[i].name) << "event " << i;
  }
}

void expect_same_report(const MpReport& a, const MpReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.blocks_moved, b.blocks_moved);
  EXPECT_EQ(a.factorized, b.factorized);
}

// Random heterogeneous 2x3 machine (distinct cycle-times so owner clocks
// differ and any accounting that leaked onto worker threads would show).
Machine het_machine(std::uint64_t seed, std::size_t p, std::size_t q) {
  Rng rng(seed);
  return Machine{CycleTimeGrid::sorted_row_major(p, q,
                                                 rng.cycle_times(p * q, 0.2)),
                 NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4, true}};
}

constexpr unsigned kThreadCounts[] = {2, 7};

// ----------------------------------------------------- hash regression

// The seed hash folded the column into the low bits of a row-only
// product, so structured sweeps (a block diagonal, a fixed column, a
// tagged panel) collided heavily. With the avalanche mix no sweep may
// chain more than a handful of keys into one bucket.
std::size_t longest_chain(const std::vector<BlockKey>& keys) {
  std::unordered_map<BlockKey, int, BlockKeyHash> map;
  map.reserve(keys.size());
  for (const BlockKey& k : keys) map[k] = 1;
  std::size_t worst = 0;
  for (std::size_t bkt = 0; bkt < map.bucket_count(); ++bkt)
    worst = std::max(worst, map.bucket_size(bkt));
  return worst;
}

TEST(BlockKeyHash, SpreadsDiagonalSweep) {
  std::vector<BlockKey> keys;
  for (std::size_t i = 0; i < 1024; ++i) keys.push_back({i, i});
  EXPECT_LE(longest_chain(keys), 6u);
}

TEST(BlockKeyHash, SpreadsColumnSweep) {
  std::vector<BlockKey> keys;
  for (std::size_t i = 0; i < 1024; ++i) keys.push_back({i, 7});
  EXPECT_LE(longest_chain(keys), 6u);
}

TEST(BlockKeyHash, SpreadsTaggedPanelSweep) {
  // The MP runtime keys A/B/C blocks as {tag * nb + bi, bj}: three
  // interleaved panels per step.
  std::vector<BlockKey> keys;
  const std::size_t nb = 341;
  for (std::size_t tag = 0; tag < 3; ++tag)
    for (std::size_t bi = 0; bi < nb; ++bi)
      keys.push_back({tag * nb + bi, 5});
  EXPECT_LE(longest_chain(keys), 6u);
}

// ----------------------------------------------------- block-store pool

TEST(BlockStore, AcquireRecyclesErasedPayload) {
  BlockStore s;
  Matrix m(4, 6, 1.5);
  const double* payload = m.data();
  s.put({3, 4}, std::move(m));
  s.erase({3, 4});
  EXPECT_EQ(s.pooled(), 1u);
  Matrix back = s.acquire(4, 6);
  EXPECT_EQ(back.data(), payload);  // same buffer, no allocation
  EXPECT_EQ(s.pooled(), 0u);
}

TEST(BlockStore, AcquireAllocatesOnShapeMiss) {
  BlockStore s;
  s.put({0, 0}, Matrix(4, 6, 0.0));
  s.erase({0, 0});
  const Matrix other = s.acquire(6, 4);  // transposed shape: no match
  EXPECT_EQ(other.rows(), 6u);
  EXPECT_EQ(other.cols(), 4u);
  EXPECT_EQ(s.pooled(), 1u);  // 4x6 buffer still pooled
}

TEST(BlockStore, ReservePreventsRehash) {
  std::unordered_map<BlockKey, Matrix, BlockKeyHash> probe;
  probe.reserve(256);
  const std::size_t buckets = probe.bucket_count();
  BlockStore s;
  s.reserve(256);
  for (std::size_t i = 0; i < 256; ++i) s.put({i, i}, Matrix(2, 2, 1.0));
  EXPECT_EQ(s.size(), 256u);
  // The probe map shows reserve() pre-sized the table: inserting up to the
  // reserved count must not grow the bucket array.
  for (std::size_t i = 0; i < 256; ++i) probe.emplace(BlockKey{i, i}, Matrix());
  EXPECT_EQ(probe.bucket_count(), buckets);
}

TEST(BlockStore, PoolBoundedPerShapeWithEvictionCounter) {
  // The shape pool is capacity-bounded: once a shape's shelf is full,
  // erase() frees the payload instead of pooling it and counts
  // block_store.pool_evictions — long runs cannot accumulate every
  // transient shape they ever saw.
  constexpr std::size_t kCap = BlockStore::kPoolCapPerShape;
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    BlockStore s;
    for (std::size_t i = 0; i < kCap + 3; ++i) {
      s.put({i, 0}, Matrix(4, 6, 1.0));
      s.erase({i, 0});
    }
    EXPECT_EQ(s.pooled(), kCap);  // shelf capped, not kCap + 3
    // A different shape gets its own shelf under the same cap.
    s.put({kCap + 9, 0}, Matrix(6, 4, 1.0));
    s.erase({kCap + 9, 0});
    EXPECT_EQ(s.pooled(), kCap + 1);
  }
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("block_store.pool_evictions").value(), 3u);
}

// ----------------------------------------------------- MP bit-identity

struct MpRun {
  MpReport report;
  Matrix out;
  std::vector<TraceEvent> events;
};

MpRun run_mmm(const Machine& machine, const Distribution2D& dist,
              std::size_t n, std::size_t block, unsigned threads) {
  Rng rng(11);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpRun run;
  run.report = run_mp_mmm(machine, dist, a.view(), b.view(), c.view(),
                          block, {}, &sink, opts);
  run.out = std::move(c);
  run.events = sink.events();
  return run;
}

MpRun run_lu(const Machine& machine, const Distribution2D& dist,
             std::size_t n, std::size_t block, bool lookahead,
             unsigned threads) {
  Rng rng(13);
  Matrix a(n, n);
  fill_diagonally_dominant(a.view(), rng);
  MemoryTraceSink sink;
  RuntimeOptions opts;
  opts.threads = threads;
  MpRun run;
  run.report =
      run_mp_lu(machine, dist, a.view(), block, {}, lookahead, &sink, opts);
  run.out = std::move(a);
  run.events = sink.events();
  return run;
}

void expect_same_run(const MpRun& serial, const MpRun& parallel) {
  expect_same_report(serial.report, parallel.report);
  EXPECT_TRUE(same_bits(serial.out.view(), parallel.out.view()));
  expect_same_events(serial.events, parallel.events);
}

TEST(MpParallel, MmmMisalignedDistributionBitIdentical) {
  // Kalinov–Lastovetsky layouts exercise the feeder transfers (blocks
  // shipped to foreign ring sources before the broadcast starts).
  const Machine machine = het_machine(29, 2, 2);
  const KalinovLastovetskyDistribution dist(machine.grid, 8, 8);
  const MpRun serial = run_mmm(machine, dist, 24, 4, 1);
  for (unsigned t : kThreadCounts)
    expect_same_run(serial, run_mmm(machine, dist, 24, 4, t));
}

TEST(MpParallel, ThreadsZeroMeansAllHardwareThreads) {
  // threads = 0 resolves to hardware concurrency; still bit-identical.
  const Machine machine = het_machine(41, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  expect_same_run(run_mmm(machine, dist, 16, 4, 1),
                  run_mmm(machine, dist, 16, 4, 0));
}

// ----------------------------------------------------- in-place sub-views

// Every kernel computes on the caller's blocks where they lie, so a matrix
// that is an interior block of a larger one must give the bits of the
// same run on a contiguous copy, with no write outside it. kPad rows and
// columns of NaN surround each interior block.
constexpr std::size_t kPad = 3;

Matrix nan_bordered(const Matrix& m) {
  Matrix big(m.rows() + 2 * kPad, m.cols() + 2 * kPad, std::nan(""));
  big.block(kPad, kPad, m.rows(), m.cols()).copy_from(m.view());
  return big;
}

MatrixView interior(Matrix& big) {
  return big.block(kPad, kPad, big.rows() - 2 * kPad, big.cols() - 2 * kPad);
}

bool border_all_nan(const Matrix& big) {
  for (std::size_t j = 0; j < big.cols(); ++j) {
    for (std::size_t i = 0; i < big.rows(); ++i) {
      const bool inside = i >= kPad && i + kPad < big.rows() && j >= kPad &&
                          j + kPad < big.cols();
      if (!inside && !std::isnan(big(i, j))) return false;
    }
  }
  return true;
}

struct InPlaceRun {
  MpReport report;
  std::vector<double> tau;         // QR only
  std::vector<std::size_t> piv;    // pivoted LU only
};

// Runs `kernel` in place on `x` (MMM: c = x * y) at block 4 on a uniform
// 2x2 grid, where a planted straggler alone decides any migration.
InPlaceRun run_in_place(const std::string& kernel, MatrixView x,
                        const ConstMatrixView& y, MatrixView c,
                        const RuntimeOptions& opts) {
  const Machine machine{CycleTimeGrid(2, 2, std::vector<double>(4, 1.0)),
                        NetworkModel{Topology::kSwitched, 1.0e-4, 2.0e-4,
                                     true}};
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  const std::size_t block = 4;
  InPlaceRun run;
  if (kernel == "mmm") {
    run.report =
        run_mp_mmm(machine, dist, x, y, c, block, {}, nullptr, opts);
  } else if (kernel == "lu") {
    run.report =
        run_mp_lu(machine, dist, x, block, {}, false, nullptr, opts);
  } else if (kernel == "lu-pivoted") {
    const MpLuReport rep =
        run_mp_lu_pivoted(machine, dist, x, block, {}, nullptr, opts);
    run.report = rep;
    run.piv = rep.piv;
  } else if (kernel == "chol") {
    run.report = run_mp_cholesky(machine, dist, x, block, {}, nullptr, opts);
  } else {
    const MpQrReport rep =
        run_mp_qr(machine, dist, x, block, {}, nullptr, opts);
    run.report = rep;
    run.tau = rep.tau;
  }
  return run;
}

TEST(MpInPlace, SubViewsMatchContiguousRunsAndKeepTheirBorder) {
  // n = 30 at block 4 leaves a ragged last block. Each kernel runs at
  // threads {1, 2, 7}, and all but pivoted LU (which rejects
  // rebalancing) again at threads {1, 2, 7} under a 4x straggler from
  // step 2 with panel rebalancing, so that blocks migrate mid-run. A
  // migration hands the binding over, with no copy and no copy-back: a
  // migrated block is computed at its new owner directly in the
  // NaN-bordered sub-view, so the border check pins that it writes only
  // its own elements. The caller's C starts all NaN: it is never read.
  const std::size_t n = 30;
  for (const std::string kernel :
       {"mmm", "lu", "lu-pivoted", "chol", "qr"}) {
    const std::size_t rows = kernel == "qr" ? n + 5 : n;
    Rng rng(61);
    Matrix x(rows, n), y(n, n);
    if (kernel == "lu")
      fill_diagonally_dominant(x.view(), rng);
    else if (kernel == "chol")
      fill_spd(x.view(), rng);
    else
      fill_random(x.view(), rng);
    fill_random(y.view(), rng);

    std::vector<RuntimeOptions> configs;
    for (unsigned threads : {1u, 2u, 7u}) {
      configs.emplace_back();
      configs.back().threads = threads;
    }
    if (kernel != "lu-pivoted") {
      for (unsigned threads : {1u, 2u, 7u}) {
        RuntimeOptions straggler;
        straggler.threads = threads;
        straggler.rebalance = RuntimeOptions::Rebalance::kPanel;
        straggler.trace = CycleTimeTrace::straggler({0, 1}, 4.0, 2);
        straggler.estimator.alpha = 1.0;
        straggler.estimator.min_samples = 1;
        configs.push_back(straggler);
      }
    }
    Matrix unmoved;  // the static serial result
    for (const RuntimeOptions& opts : configs) {
      const bool rebalanced =
          opts.rebalance == RuntimeOptions::Rebalance::kPanel;
      SCOPED_TRACE(testing::Message() << kernel << " threads=" << opts.threads
                                      << " rebalanced=" << rebalanced);
      Matrix x_flat = x, c_flat(n, n, std::nan(""));
      RuntimeOptions serial = opts;
      serial.threads = 1;
      const InPlaceRun want = run_in_place(kernel, x_flat.view(), y.view(),
                                           c_flat.view(), serial);
      const Matrix& flat = kernel == "mmm" ? c_flat : x_flat;
      if (unmoved.empty()) {
        unmoved = flat;
        if (kernel == "mmm") {
          // Each element's chain runs over k ascending from +0.0, as in
          // one sequential gemm; a NaN read from C would survive.
          Matrix product(n, n);
          gemm(Trans::No, Trans::No, 1.0, x.view(), y.view(), 0.0,
               product.view());
          EXPECT_TRUE(same_bits(product.view(), unmoved.view()));
        }
      }

      Matrix x_big = nan_bordered(x), y_big = nan_bordered(y);
      Matrix c_big = nan_bordered(Matrix(n, n, std::nan("")));
      const InPlaceRun got = run_in_place(kernel, interior(x_big),
                                          interior(y_big), interior(c_big),
                                          opts);
      Matrix& big = kernel == "mmm" ? c_big : x_big;
      EXPECT_TRUE(same_bits(flat.view(), interior(big)));
      if (kernel == "mmm") {
        EXPECT_TRUE(same_bits(x.view(), interior(x_big)));
        EXPECT_TRUE(same_bits(y.view(), interior(y_big)));
      }
      EXPECT_TRUE(border_all_nan(x_big));
      EXPECT_TRUE(border_all_nan(y_big));
      EXPECT_TRUE(border_all_nan(c_big));
      EXPECT_EQ(got.tau, want.tau);
      EXPECT_EQ(got.piv, want.piv);
      expect_same_report(want.report, got.report);
      if (rebalanced) {
        // Migration only moves blocks, so the result is the static run's;
        // QR regroups its W reduction by the new grid rows.
        EXPECT_GE(got.report.rebalance_blocks, 1u);
        if (kernel == "qr") {
          EXPECT_LE(max_abs_diff(unmoved.view(), interior(big)), 1e-8);
        } else {
          EXPECT_TRUE(same_bits(unmoved.view(), interior(big)));
        }
      }
    }
  }
}

// ----------------------------------------------------- gemm paths

TEST(GemmParallel, PackedLargePathMatchesReference) {
  // 200 x 150 from an inner dimension of 170 spans several kernel tiles in
  // every dimension; validate against the naive reference.
  Rng rng(73);
  Matrix a(200, 170), b(170, 150), c(200, 150), ref(200, 150);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c.view(), rng);
  ref.view().copy_from(c.view());
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5, c.view());
  gemm_reference(Trans::No, Trans::No, 1.5, a.view(), b.view(), -0.5,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-9);
}

// ----------------------------------------------------- kernel dispatch

TEST(GemmKernel, DispatchReportsAKnownKernel) {
  KernelGuard guard;
  const std::string name = gemm_kernel_name();
  const std::vector<std::string> accepted = accepted_kernels();
  ASSERT_FALSE(accepted.empty());
  EXPECT_EQ(accepted.back(), "scalar");
  // Auto is the pinned kernel when HETGRID_GEMM_KERNEL is set (a
  // misspelled or unavailable value would silently fall back to detection
  // and test nothing), else the first kernel in dispatch order the host
  // runs.
  if (const char* pinned = std::getenv("HETGRID_GEMM_KERNEL"))
    EXPECT_EQ(name, pinned);
  else
    EXPECT_EQ(name, accepted.front());
  for (const detail::KernelEntry& k : detail::kernel_list()) {
    if (!gemm_force_kernel(k.name)) continue;
    EXPECT_EQ(gemm_kernel_name(), k.name);
  }
  EXPECT_FALSE(gemm_force_kernel("avx512-dreams"));
  EXPECT_TRUE(gemm_force_kernel("scalar"));
  EXPECT_STREQ(gemm_kernel_name(), "scalar");
  EXPECT_TRUE(gemm_force_kernel("auto"));
  EXPECT_EQ(gemm_kernel_name(), name);
}

TEST(GemmKernel, EveryKernelBitIdenticalToScalar) {
  // The dispatch contract: kernel choice can never change a computed bit.
  // The SIMD kernels vectorize across rows with separate mul+add (no FMA),
  // so each C element keeps the scalar kernel's rounding sequence exactly.
  KernelGuard guard;
  const std::vector<std::string> kernels = simd_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host runs the scalar kernel only";
  struct Shape {
    std::size_t m, n, k;
  };
  // 137 x 211 x 93 exercises both register blocks (8x4 and 16x8) plus
  // their row tails (137 = 17*8 + 1 = 8*16 + 9), column tails (211 = 52*4
  // + 3 = 26*8 + 3), and partial packs. The small shapes are block-update
  // sizes: tails only (1, 3, 5, 7), exact tiles (64, 128), one past them
  // (65 x 63 x 66), and rows and columns either side of the 16x8 block
  // (m 15, 17, 33; n 7, 9).
  const Shape shapes[] = {{137, 211, 93}, {1, 1, 1},    {3, 5, 7},
                          {7, 3, 5},      {64, 64, 64}, {64, 128, 64},
                          {65, 63, 66},   {15, 7, 11},  {17, 9, 13},
                          {33, 9, 70},    {33, 7, 4},   {15, 9, 1}};
  Rng rng(89);
  for (const Shape& s : shapes) {
    for (const Trans ta : {Trans::No, Trans::Yes}) {
      for (const Trans tb : {Trans::No, Trans::Yes}) {
        Matrix a = ta == Trans::No ? Matrix(s.m, s.k) : Matrix(s.k, s.m);
        Matrix b = tb == Trans::No ? Matrix(s.k, s.n) : Matrix(s.n, s.k);
        Matrix c0(s.m, s.n), c_scalar(s.m, s.n);
        fill_random(a.view(), rng);
        fill_random(b.view(), rng);
        fill_random(c0.view(), rng);
        c_scalar.view().copy_from(c0.view());
        ASSERT_TRUE(gemm_force_kernel("scalar"));
        gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c_scalar.view());
        for (const std::string& kern : kernels) {
          SCOPED_TRACE(testing::Message()
                       << kern << " " << s.m << "x" << s.n << "x" << s.k
                       << " trans_a=" << (ta == Trans::Yes)
                       << " trans_b=" << (tb == Trans::Yes));
          Matrix c_simd(s.m, s.n);
          c_simd.view().copy_from(c0.view());
          ASSERT_TRUE(gemm_force_kernel(kern));
          gemm(ta, tb, 1.5, a.view(), b.view(), -0.5, c_simd.view());
          EXPECT_TRUE(same_bits(c_simd.view(), c_scalar.view()));
        }
      }
    }
  }
}

TEST(GemmKernel, MpRunsBitIdenticalAcrossDispatch) {
  // End-to-end: a distributed MMM and LU with 70-wide blocks (wider than
  // both SIMD register blocks, 8x4 and 16x8, and a multiple of neither)
  // must produce byte-identical reports, matrices, and traces under every
  // kernel.
  KernelGuard guard;
  const std::vector<std::string> kernels = simd_kernels();
  if (kernels.empty()) GTEST_SKIP() << "host runs the scalar kernel only";
  const Machine machine = het_machine(47, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  const MpRun mmm_scalar = run_mmm(machine, dist, 140, 70, 2);
  const MpRun lu_scalar = run_lu(machine, dist, 140, 70, false, 2);
  for (const std::string& kern : kernels) {
    SCOPED_TRACE(kern);
    ASSERT_TRUE(gemm_force_kernel(kern));
    expect_same_run(run_mmm(machine, dist, 140, 70, 2), mmm_scalar);
    expect_same_run(run_lu(machine, dist, 140, 70, false, 2), lu_scalar);
  }
}

TEST(GemmKernel, SmallPathNBoundBitSafe) {
  // Splitting a call into column slices moves no bit: every C element's
  // operation sequence depends only on its own row of A and column of B,
  // never on how many columns share the call, so a 64 x 64 x 400 product
  // must match, bit for bit, the same product computed 100 columns at a
  // time.
  Rng rng(97);
  const std::size_t m = 64, k = 64, n = 400, slice = 100;
  Matrix a(m, k), b(k, n), c_full(m, n), c_sliced(m, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  fill_random(c_full.view(), rng);
  c_sliced.view().copy_from(c_full.view());
  gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c_full.view());
  for (std::size_t j0 = 0; j0 < n; j0 += slice) {
    const std::size_t jlen = std::min(slice, n - j0);
    gemm(Trans::No, Trans::No, 1.5, a.view(), b.block(0, j0, k, jlen), 0.5,
         c_sliced.block(0, j0, m, jlen));
  }
  EXPECT_TRUE(same_bits(c_full.view(), c_sliced.view()));
}

// ----------------------------------------------------- metric stability

// Canonical rendering of the gemm call counters — the part of a metrics
// snapshot the determinism contract pins. (The full snapshot also holds
// pool wall-clock histograms, which exist only when a pool runs; those are
// documented as wall-clock-valued and excluded from the byte-stability
// guarantee.)
std::string gemm_counter_fingerprint(MetricsRegistry& m) {
  std::ostringstream os;
  os << "gemm.calls=" << m.counter("gemm.calls").value()
     << " gemm.tile_calls=" << m.counter("gemm.tile_calls").value()
     << " gemm.packed_calls=" << m.counter("gemm.packed_calls").value();
  return os.str();
}

TEST(GemmMetrics, CallCountersClassifyEachLogicalCallOnce) {
  // Every logical call counts once in gemm.calls; only untransposed calls
  // with alpha != 0 are classified, by their shape alone, as a tile or a
  // packed call (src/matrix/gemm.cpp).
  MetricsRegistry reg;
  install_metrics(&reg);
  {
    Rng rng(101);
    // One packed call, one tile-sized call, one transposed call, and one
    // alpha == 0 call.
    Matrix a(96, 80), b(80, 512), c(96, 512);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    fill_random(c.view(), rng);
    gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c.view());
    Matrix sa(32, 16), sb(16, 40), sc(32, 40, 0.0);
    fill_random(sa.view(), rng);
    fill_random(sb.view(), rng);
    gemm(Trans::No, Trans::No, 1.0, sa.view(), sb.view(), 0.0, sc.view());
    Matrix ta(16, 32), tc(32, 40, 0.0);
    fill_random(ta.view(), rng);
    gemm(Trans::Yes, Trans::No, 1.0, ta.view(), sb.view(), 0.0, tc.view());
    gemm(Trans::No, Trans::No, 0.0, sa.view(), sb.view(), 1.0, sc.view());
  }
  install_metrics(nullptr);
  EXPECT_EQ(gemm_counter_fingerprint(reg),
            "gemm.calls=4 gemm.tile_calls=1 gemm.packed_calls=1");
}

// ----------------------------------------------------- MP kernels x dispatch

struct KernelResults {
  Matrix mmm, lu, chol, qr;
  std::vector<double> tau;
};

// One run of all four MP kernels at n = 140 with 70-wide blocks, so every
// local trailing update reaches the register core and its row and column
// tails.
KernelResults run_all_kernels(const Machine& machine,
                              const Distribution2D& dist, unsigned threads) {
  const std::size_t n = 140, block = 70;
  RuntimeOptions opts;
  opts.threads = threads;
  KernelResults r;
  {
    Rng rng(111);
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    r.mmm = Matrix(n, n);
    run_mp_mmm(machine, dist, a.view(), b.view(), r.mmm.view(), block, {},
               nullptr, opts);
  }
  {
    Rng rng(113);
    r.lu = Matrix(n, n);
    fill_diagonally_dominant(r.lu.view(), rng);
    run_mp_lu(machine, dist, r.lu.view(), block, {}, false, nullptr, opts);
  }
  {
    Rng rng(117);
    r.chol = Matrix(n, n);
    fill_spd(r.chol.view(), rng);
    run_mp_cholesky(machine, dist, r.chol.view(), block, {}, nullptr, opts);
  }
  {
    Rng rng(119);
    r.qr = Matrix(n, n);
    fill_random(r.qr.view(), rng);
    r.tau =
        run_mp_qr(machine, dist, r.qr.view(), block, {}, nullptr, opts).tau;
  }
  return r;
}

TEST(GemmKernel, MpKernelsBitIdenticalAcrossKernelsAndThreads) {
  // MMM, LU, Cholesky and QR must produce byte-identical outputs across
  // every kernel the host accepts x threads {1, 2, 7}.
  KernelGuard guard;
  const Machine machine = het_machine(47, 2, 2);
  const PanelDistribution dist = PanelDistribution::block_cyclic(2, 2);
  ASSERT_TRUE(gemm_force_kernel("scalar"));
  const KernelResults base = run_all_kernels(machine, dist, 1);
  for (const std::string& kern : accepted_kernels()) {
    ASSERT_TRUE(gemm_force_kernel(kern));
    for (unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE(testing::Message() << kern << " threads=" << threads);
      const KernelResults got = run_all_kernels(machine, dist, threads);
      EXPECT_TRUE(same_bits(base.mmm.view(), got.mmm.view()));
      EXPECT_TRUE(same_bits(base.lu.view(), got.lu.view()));
      EXPECT_TRUE(same_bits(base.chol.view(), got.chol.view()));
      EXPECT_TRUE(same_bits(base.qr.view(), got.qr.view()));
      EXPECT_EQ(base.tau, got.tau);
    }
  }
}

}  // namespace
}  // namespace hetgrid
