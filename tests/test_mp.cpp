// Tests for the asynchronous message-passing runtime: the network timing
// model, the distributed block stores, and the MMM, LU (with and without
// partial pivoting), Cholesky and QR kernels on top.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/heuristic.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "mp/block_store.hpp"
#include "mp/mp_runtime.hpp"
#include "mp/virtual_network.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid {
namespace {

// ----------------------------------------------------- golden fingerprints

// FNV-1a over the exact bytes of every value fed in (SimGolden's scheme in
// test_sim.cpp), so two runs agree only if every double matches bit for
// bit.
struct Fingerprint {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
};

void fingerprint_report(Fingerprint& fp, const MpReport& rep) {
  fp.f64(rep.makespan);
  fp.f64s(rep.clock);
  fp.f64s(rep.busy);
  fp.u64(rep.messages);
  fp.f64(rep.blocks_moved);
  fp.u64(rep.factorized ? 1 : 0);
  fp.u64(rep.rebalances);
  fp.u64(rep.rebalance_blocks);
}

void fingerprint_events(Fingerprint& fp, const std::vector<TraceEvent>& evs) {
  fp.u64(evs.size());
  for (const TraceEvent& e : evs) {
    fp.u64(static_cast<std::uint64_t>(e.kind));
    fp.u64(e.proc);
    fp.f64(e.start);
    fp.f64(e.duration);
    fp.u64(e.step);
    fp.f64(e.blocks);
    fp.u64(e.peer);
    fp.str(e.name);
  }
}

void fingerprint_matrix(Fingerprint& fp, const ConstMatrixView& m) {
  fp.u64(m.rows());
  fp.u64(m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i) fp.f64(m(i, j));
}

// One MP kernel run, fingerprinted over every MpReport field, tau (QR),
// the full trace stream, and the output matrix bits.
std::uint64_t mp_fingerprint(const std::string& kernel, const Machine& m,
                             const Distribution2D& d, std::size_t n,
                             std::size_t block) {
  Rng rng(n * 7 + kernel.size());
  MemoryTraceSink sink;
  Fingerprint fp;
  Matrix out(n, n);
  if (kernel == "mmm") {
    Matrix a(n, n), b(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    fingerprint_report(
        fp, run_mp_mmm(m, d, a.view(), b.view(), out.view(), block, {},
                       &sink));
  } else if (kernel == "lu" || kernel == "lu-lookahead") {
    fill_diagonally_dominant(out.view(), rng);
    fingerprint_report(fp, run_mp_lu(m, d, out.view(), block, {},
                                     kernel == "lu-lookahead", &sink));
  } else if (kernel == "qr") {
    fill_random(out.view(), rng);
    const MpQrReport rep = run_mp_qr(m, d, out.view(), block, {}, &sink);
    fingerprint_report(fp, rep);
    fp.f64s(rep.tau);
  } else {
    fill_spd(out.view(), rng);
    fingerprint_report(fp,
                       run_mp_cholesky(m, d, out.view(), block, {}, &sink));
  }
  fingerprint_events(fp, sink.events());
  fingerprint_matrix(fp, out.view());
  return fp.h;
}

TEST(MpGolden, ReportsTracesAndMatricesMatchRecordedFingerprints) {
  // Pins every MpReport field, QR's tau, the full trace stream and the
  // output bits of the MP kernels on a heterogeneous 2x3 grid at block 4,
  // under block-cyclic and the heuristic panel, at an even and a ragged n.
  // The expected values were recorded before LU's step loop learned the
  // pivoted panel phase and QR's panel sequence moved into the shared
  // gather-and-factor helper: both refactors must change no op.
  const HeuristicResult h =
      solve_heuristic(2, 3, {0.7, 1.3, 2.9, 1.1, 3.7, 5.3});
  const CycleTimeGrid& grid = h.final().grid;
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 3);
  const PanelDistribution het = PanelDistribution::from_allocation(
      grid, h.final().alloc, 6, 6, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  const Machine machine{grid, {Topology::kSwitched, 0.05, 0.1, true}};
  struct Case {
    const char* kernel;
    const Distribution2D* dist;
    std::size_t n;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"mmm", &bc, 24, 0x8cedcbe7ebecda1eull},
      {"mmm", &het, 26, 0x927dcc0ac9e98800ull},
      {"lu", &bc, 24, 0x2de23326407a9e00ull},
      {"lu", &bc, 26, 0x5a53cf1d7efed404ull},
      {"lu", &het, 24, 0x17057686ad26d007ull},
      {"lu", &het, 26, 0x5a80b83cb998190cull},
      {"lu-lookahead", &bc, 24, 0x47f3fa3e044a3081ull},
      {"lu-lookahead", &bc, 26, 0x619d0e6892d4c833ull},
      {"lu-lookahead", &het, 24, 0x8b2cf508a032901cull},
      {"lu-lookahead", &het, 26, 0x1bfcdf2f0b740ce6ull},
      {"qr", &bc, 24, 0x7f0d0bf68a05e358ull},
      {"qr", &bc, 26, 0xe6f6ea7091a5c313ull},
      {"qr", &het, 24, 0x764d4fd3ff68bfc5ull},
      {"qr", &het, 26, 0x58dac0f89b063d0eull},
      {"cholesky", &bc, 24, 0x71f49eb3c663ae5dull},
      {"cholesky", &het, 26, 0x28d420743e50954bull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.kernel << " " << c.dist->name() << " n=" << c.n);
    const std::uint64_t got = mp_fingerprint(c.kernel, machine, *c.dist,
                                             c.n, 4);
    EXPECT_EQ(got, c.expected) << std::hex << "0x" << got << "ull";
  }
}

// Summed pure compute time over all processors.
double total_busy(const MpReport& rep) {
  double total = 0.0;
  for (double b : rep.busy) total += b;
  return total;
}

// ----------------------------------------------------- network

TEST(VirtualNetwork, TransferTimesAddLatencyAndVolume) {
  const NetworkModel net{Topology::kSwitched, 0.5, 0.1, true};
  VirtualNetwork vn(4, net);
  // 3 blocks: 0.5 + 3*0.1 = 0.8, starting at t=1.
  EXPECT_DOUBLE_EQ(vn.transfer(0, 1, 3, 1.0), 1.8);
}

TEST(VirtualNetwork, SenderSerializesItsMessages) {
  const NetworkModel net{Topology::kSwitched, 1.0, 0.0, true};
  VirtualNetwork vn(4, net);
  EXPECT_DOUBLE_EQ(vn.transfer(0, 1, 1, 0.0), 1.0);
  // Second send from 0 cannot start before the first finished.
  EXPECT_DOUBLE_EQ(vn.transfer(0, 2, 1, 0.0), 2.0);
  // A different sender is unaffected (switched network).
  EXPECT_DOUBLE_EQ(vn.transfer(3, 1, 1, 0.0), 2.0);  // waits on recv side
  EXPECT_DOUBLE_EQ(vn.transfer(3, 2, 1, 0.0), 3.0);  // 3's send side now busy
}

TEST(VirtualNetwork, EthernetSharesOneBus) {
  const NetworkModel net{Topology::kEthernet, 1.0, 0.0, true};
  VirtualNetwork vn(4, net);
  EXPECT_DOUBLE_EQ(vn.transfer(0, 1, 1, 0.0), 1.0);
  // Disjoint endpoints, but the bus is busy until t=1.
  EXPECT_DOUBLE_EQ(vn.transfer(2, 3, 1, 0.0), 2.0);
}

TEST(VirtualNetwork, SelfSendIsFree) {
  const NetworkModel net{Topology::kSwitched, 1.0, 1.0, true};
  VirtualNetwork vn(2, net);
  EXPECT_DOUBLE_EQ(vn.transfer(0, 0, 10, 3.5), 3.5);
  EXPECT_EQ(vn.messages_sent(), 0u);
}

TEST(VirtualNetwork, CountsTraffic) {
  const NetworkModel net = NetworkModel::free();
  VirtualNetwork vn(3, net);
  vn.transfer(0, 1, 4, 0.0);
  vn.transfer(1, 2, 6, 0.0);
  EXPECT_EQ(vn.messages_sent(), 2u);
  EXPECT_DOUBLE_EQ(vn.bytes_blocks_sent(), 10.0);
}

// ----------------------------------------------------- block store

TEST(BlockStore, PutGetRoundTrip) {
  BlockStore s;
  Matrix m(2, 2, 3.0);
  s.put({1, 2}, std::move(m));
  EXPECT_TRUE(s.contains({1, 2}));
  EXPECT_DOUBLE_EQ(s.at({1, 2})(0, 0), 3.0);
}

TEST(BlockStore, MissingBlockThrows) {
  BlockStore s;
  EXPECT_THROW(s.at({0, 0}), PreconditionError);
}

TEST(BlockStore, EraseRemovesCopy) {
  BlockStore s;
  s.put({0, 0}, Matrix(1, 1, 1.0));
  s.erase({0, 0});
  EXPECT_FALSE(s.contains({0, 0}));
  EXPECT_EQ(s.size(), 0u);
}

// ----------------------------------------------------- grid bound

TEST(MpGridBound, EveryKernelRejectsA65x65GridBeforeDoingAnyWork) {
  // The task graph packs the processor id into 12 bits of its key, so a
  // grid of more than 4096 processors would alias two processors' blocks.
  // Every entry point rejects one up front: no trace event is emitted and
  // no output is written.
  const std::size_t p = 65, q = 65, n = 2, block = 1;
  const Machine m{CycleTimeGrid(p, q, std::vector<double>(p * q, 1.0)),
                  NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(p, q);
  const Matrix a(n, n, 1.0), b(n, n, 1.0);
  const auto untouched = [](const Matrix& x) {
    for (std::size_t j = 0; j < x.cols(); ++j)
      for (std::size_t i = 0; i < x.rows(); ++i)
        if (x(i, j) != 7.0) return false;
    return true;
  };
  MemoryTraceSink sink;

  Matrix c(n, n, 7.0);
  EXPECT_THROW(
      run_mp_mmm(m, d, a.view(), b.view(), c.view(), block, {}, &sink),
      PreconditionError);
  EXPECT_TRUE(untouched(c));
  Matrix lu(n, n, 7.0);
  EXPECT_THROW(run_mp_lu(m, d, lu.view(), block, {}, false, &sink),
               PreconditionError);
  EXPECT_TRUE(untouched(lu));
  Matrix piv(n, n, 7.0);
  EXPECT_THROW(run_mp_lu_pivoted(m, d, piv.view(), block, {}, &sink),
               PreconditionError);
  EXPECT_TRUE(untouched(piv));
  Matrix chol(n, n, 7.0);
  EXPECT_THROW(run_mp_cholesky(m, d, chol.view(), block, {}, &sink),
               PreconditionError);
  EXPECT_TRUE(untouched(chol));
  Matrix qr(n, n, 7.0);
  EXPECT_THROW(run_mp_qr(m, d, qr.view(), block, {}, &sink),
               PreconditionError);
  EXPECT_TRUE(untouched(qr));
  EXPECT_TRUE(sink.events().empty());
}

TEST(MpGridBound, ThreadCountAboveThePoolBoundIsRejectedBeforeAnyWork) {
  const Machine m{CycleTimeGrid(1, 1, {1.0}), NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  const Matrix a(4, 4, 1.0), b(4, 4, 1.0);
  Matrix c(4, 4, 7.0);
  RuntimeOptions opts;
  opts.threads = ThreadPool::kMaxThreads + 1;
  EXPECT_THROW(
      run_mp_mmm(m, d, a.view(), b.view(), c.view(), 2, {}, nullptr, opts),
      PreconditionError);
  EXPECT_EQ(c(0, 0), 7.0);
}

// ----------------------------------------------------- MP MMM

TEST(MpMmm, MatchesSequentialProduct) {
  const auto check = [](std::size_t n, std::size_t block,
                        const CycleTimeGrid& g, const Distribution2D& d) {
    Rng rng(31);
    Matrix a(n, n), b(n, n), c(n, n), ref(n, n, 0.0);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
    const MpReport rep =
        run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
    gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0,
                   ref.view());
    EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-11)
        << "n=" << n << " on " << g.rows() << "x" << g.cols();
    EXPECT_GT(rep.messages, 0u);
    EXPECT_GT(rep.makespan, 0.0);
  };
  // 25 = 4*6 + 1 adds ragged edge blocks.
  const CycleTimeGrid het(2, 2, {1, 2, 3, 6});
  for (const std::size_t n : {24u, 25u})
    check(n, 6, het,
          PanelDistribution::from_counts({3, 1}, {2, 1}, het,
                                         PanelOrder::kContiguous,
                                         PanelOrder::kContiguous, "het"));
  // More grid rows than 64: the ring sources are kept per grid line.
  const CycleTimeGrid tall(65, 1, std::vector<double>(65, 1.0));
  check(70, 1, tall, PanelDistribution::block_cyclic(65, 1));
}

TEST(MpMmm, RejectsNonSquareInput) {
  Matrix a(4, 5), b(5, 4), c(4, 4);
  const Machine m{CycleTimeGrid(1, 1, {1.0}), NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  EXPECT_THROW(run_mp_mmm(m, d, a.view(), b.view(), c.view(), 2),
               PreconditionError);
}

TEST(MpMmm, CorrectUnderKalinovLastovetsky) {
  const std::size_t n = 28, block = 4;
  Rng rng(32);
  Matrix a(n, n), b(n, n), c(n, n), ref(n, n, 0.0);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  const Machine m{g, NetworkModel::free()};
  run_mp_mmm(m, kl, a.view(), b.view(), c.view(), block);
  gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0,
                 ref.view());
  EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-11);
}

TEST(MpMmm, FreeNetworkMatchesBspComputeOnHomogeneousGrid) {
  // Homogeneous grid + free network: every step's compute is identical on
  // all processors, so the async makespan equals the BSP compute time.
  const std::size_t n = 16, block = 4;
  Rng rng(33);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, std::vector<double>(4, 0.5));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  const MpReport mp = run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
  const SimReport bsp = simulate_mmm(m, d, n / block);
  EXPECT_NEAR(mp.makespan, bsp.compute_time, 1e-9);
}

TEST(MpMmm, AsyncNeverSlowerThanBspBound) {
  // Without barriers, the async makespan is at most the BSP makespan
  // (same work, same messages, fewer synchronization constraints) — up to
  // the slightly different broadcast accounting; we check compute-only.
  Rng rng(34);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 24, block = 4;
    Matrix a(n, n), b(n, n), c(n, n);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    const std::vector<double> pool = rng.cycle_times(4, 0.2);
    const CycleTimeGrid g = CycleTimeGrid::sorted_row_major(2, 2, pool);
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const Machine m{g, NetworkModel::free()};
    const MpReport mp =
        run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
    const SimReport bsp = simulate_mmm(m, d, n / block);
    EXPECT_LE(mp.makespan, bsp.total_time + 1e-9) << "trial " << trial;
  }
}

TEST(MpMmm, UtilizationBounded) {
  const std::size_t n = 16, block = 4;
  Rng rng(35);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kEthernet, 1e-3, 1e-3, true}};
  const MpReport rep = run_mp_mmm(m, d, a.view(), b.view(), c.view(), block);
  EXPECT_GT(rep.average_utilization(), 0.0);
  EXPECT_LE(rep.average_utilization(), 1.0 + 1e-12);
}

// ----------------------------------------------------- MP LU

TEST(MpLu, MatchesSequentialNoPivotFactors) {
  // 23 = 4*5 + 3 adds ragged edge blocks.
  for (const auto& [n, block] : {std::pair<std::size_t, std::size_t>{24, 4},
                                {23, 5}}) {
    Rng rng(41);
    Matrix orig(n, n);
    fill_diagonally_dominant(orig.view(), rng);
    Matrix seq(n, n), par(n, n);
    seq.view().copy_from(orig.view());
    par.view().copy_from(orig.view());
    ASSERT_TRUE(lu_factor_nopivot(seq.view()));

    const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
    const MpReport rep = run_mp_lu(m, d, par.view(), block);
    EXPECT_TRUE(rep.factorized);
    EXPECT_LT(max_abs_diff(seq.view(), par.view()), 1e-10) << "n=" << n;
  }
}

TEST(MpLu, HeterogeneousPanelDistribution) {
  const std::size_t n = 48, block = 6;
  Rng rng(42);
  Matrix orig(n, n);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het-lu");
  const Machine m{h.final().grid, NetworkModel::free()};
  const MpReport rep = run_mp_lu(m, d, a.view(), block);
  EXPECT_TRUE(rep.factorized);

  const Matrix prod = lu_reconstruct(a.view(), n);
  EXPECT_LT(max_abs_diff(prod.view(), orig.view()) / norm_max(orig.view()),
            1e-11);
}

TEST(MpLu, RejectsMisalignedDistribution) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  Matrix a(8, 8, 1.0);
  const Machine m{g, NetworkModel::free()};
  EXPECT_THROW(run_mp_lu(m, kl, a.view(), 2), PreconditionError);
}

TEST(MpLu, ReportsZeroPivot) {
  Matrix a(4, 4, 0.0);
  const Machine m{CycleTimeGrid(1, 1, {1.0}), NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  EXPECT_FALSE(run_mp_lu(m, d, a.view(), 2).factorized);
}

TEST(MpLu, AsyncOverlapBeatsOrMatchesBsp) {
  // LU has real cross-step dependencies, but broadcast/compute overlap
  // still lets the async execution finish no later than the BSP model
  // under the same network costs.
  const std::size_t n = 32, block = 4;
  Rng rng(43);
  Matrix a(n, n);
  fill_diagonally_dominant(a.view(), rng);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kSwitched, 1e-3, 1e-3, false}};
  const MpReport mp = run_mp_lu(m, d, a.view(), block);
  const SimReport bsp = simulate_lu(m, d, n / block);
  EXPECT_LE(mp.makespan, bsp.total_time * 1.05);
}

// ----------------------------------------------------- MP pivoted LU

TEST(MpLuPivoted, MatchesSequentialBlockedFactors) {
  // A general random matrix needs pivoting. The panel pivots on the same
  // gathered columns as lu_factor_blocked, so ipiv must match exactly and
  // the factors to rounding — under block-cyclic and the heuristic panel,
  // at an even and a ragged n.
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  const PanelDistribution het = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  const Machine m{h.final().grid, {Topology::kSwitched, 1e-4, 2e-4, true}};
  for (const Distribution2D* d : {static_cast<const Distribution2D*>(&bc),
                                  static_cast<const Distribution2D*>(&het)}) {
    for (std::size_t n : {24u, 27u}) {
      SCOPED_TRACE(testing::Message() << d->name() << " n=" << n);
      Rng rng(61 + n);
      Matrix seq(n, n);
      fill_random(seq.view(), rng);
      Matrix par = seq;
      const LuResult sres = lu_factor_blocked(seq.view(), 4);
      const MpLuReport rep = run_mp_lu_pivoted(m, *d, par.view(), 4);
      EXPECT_TRUE(rep.factorized);
      EXPECT_EQ(rep.piv, sres.piv);
      EXPECT_LT(max_abs_diff(seq.view(), par.view()), 1e-12);
    }
  }
}

TEST(MpLuPivoted, SolvesGeneralSystem) {
  const std::size_t n = 30, block = 5;
  Rng rng(62);
  Matrix a(n, n), x_true(n, 1), b(n, 1, 0.0);
  fill_random(a.view(), rng);
  fill_random(x_true.view(), rng);
  gemm(Trans::No, Trans::No, 1.0, a.view(), x_true.view(), 0.0, b.view());
  const CycleTimeGrid g(2, 3, {1, 2, 3, 2, 4, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
  const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
  const MpLuReport rep = run_mp_lu_pivoted(m, d, a.view(), block);
  ASSERT_TRUE(rep.factorized);
  lu_solve(a.view(), rep.piv, b.view());
  EXPECT_LT(max_abs_diff(b.view(), x_true.view()), 1e-9);
}

TEST(MpLuPivoted, RankOneInputIsNotFactorized) {
  Matrix a(6, 6, 1.0);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  EXPECT_FALSE(run_mp_lu_pivoted(m, d, a.view(), 2).factorized);
}

// Swap messages the pivots of `piv` call for: one per (step, grid column,
// source grid row, destination grid row) whose rows change grid row in a
// block column other than the panel's.
std::size_t expected_swap_messages(const std::vector<std::size_t>& piv,
                                   const Distribution2D& d, std::size_t n,
                                   std::size_t block) {
  const std::size_t nb = (n + block - 1) / block;
  std::size_t messages = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    const std::size_t klo = k * block, klen = std::min(block, n - klo);
    std::vector<std::size_t> src(n);
    for (std::size_t r = 0; r < n; ++r) src[r] = r;
    for (std::size_t i = klo; i < klo + klen; ++i)
      std::swap(src[i], src[piv[i]]);
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> pairs;
    for (std::size_t r = klo; r < n; ++r) {
      const std::size_t from = d.owner(src[r] / block, 0).row;
      const std::size_t to = d.owner(r / block, 0).row;
      if (from == to) continue;
      for (std::size_t bj = 0; bj < nb; ++bj)
        if (bj != k) pairs.insert({d.owner(0, bj).col, from, to});
    }
    messages += pairs.size();
  }
  return messages;
}

TEST(MpLuPivoted, CrossRowPivotsAreExplicitMessages) {
  // Same shape, same machine: the only traffic difference between a
  // matrix that pivots across grid rows and one that needs no
  // interchanges is the row-swap messages — exactly one per (source,
  // destination) pair of a grid column per step. Swaps read only the
  // executing processor's store (block views resolve there, and a block
  // that was never sent throws), so every cross-processor row is one of
  // these messages.
  const std::size_t n = 24, block = 4;
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kSwitched, 1e-3, 1e-3, true}};
  Rng rng(63);
  Matrix general(n, n), dominant(n, n);
  fill_random(general.view(), rng);
  fill_diagonally_dominant(dominant.view(), rng);
  const MpLuReport swapped = run_mp_lu_pivoted(m, d, general.view(), block);
  const MpLuReport plain = run_mp_lu_pivoted(m, d, dominant.view(), block);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(plain.piv[i], i);
  const std::size_t swaps = expected_swap_messages(swapped.piv, d, n, block);
  ASSERT_GT(swaps, 0u);
  EXPECT_EQ(swapped.messages, plain.messages + swaps);
  EXPECT_GT(swapped.blocks_moved, plain.blocks_moved);
  EXPECT_GT(swapped.makespan, plain.makespan);
}

TEST(MpLuPivoted, RejectsMisalignedDistributionAndRebalancing) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  Matrix a(8, 8, 1.0);
  EXPECT_THROW(run_mp_lu_pivoted(m, kl, a.view(), 2), PreconditionError);
  RuntimeOptions opts;
  opts.rebalance = RuntimeOptions::Rebalance::kPanel;
  EXPECT_THROW(run_mp_lu_pivoted(m, bc, a.view(), 2, {}, nullptr, opts),
               PreconditionError);
}

// ----------------------------------------------------- MP Cholesky

TEST(MpCholesky, MatchesSequentialBlockedFactors) {
  const std::size_t n = 24, block = 4;
  Rng rng(46);
  Matrix orig(n, n);
  fill_spd(orig.view(), rng);
  Matrix seq(n, n), par(n, n);
  seq.view().copy_from(orig.view());
  par.view().copy_from(orig.view());

  ASSERT_TRUE(cholesky_factor_blocked(seq.view(), block));
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
  const MpReport rep = run_mp_cholesky(m, d, par.view(), block);
  EXPECT_TRUE(rep.factorized);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i)
      EXPECT_NEAR(seq(i, j), par(i, j), 1e-10) << i << "," << j;
}

TEST(MpCholesky, HeterogeneousPanelReconstruction) {
  const std::size_t n = 48, block = 6;
  Rng rng(47);
  Matrix orig(n, n);
  fill_spd(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het-chol");
  const Machine m{h.final().grid, NetworkModel::free()};
  const MpReport rep = run_mp_cholesky(m, d, a.view(), block);
  ASSERT_TRUE(rep.factorized);

  const Matrix rec = cholesky_reconstruct(a.view());
  EXPECT_LT(max_abs_diff(rec.view(), orig.view()) / norm_max(orig.view()),
            1e-11);
}

TEST(MpCholesky, CheaperThanLuOnSameMatrix) {
  // Cholesky does about half the work of LU (triangular trailing update).
  const std::size_t n = 32, block = 4;
  Rng rng(24);
  Matrix a_lu(n, n);
  fill_spd(a_lu.view(), rng);
  Matrix a_ch = a_lu;
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  EXPECT_LT(total_busy(run_mp_cholesky(m, d, a_ch.view(), block)),
            total_busy(run_mp_lu(m, d, a_lu.view(), block)));
}

TEST(MpCholesky, ReportsNonSpdInput) {
  Matrix a(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = -2.0;
  const Machine m{CycleTimeGrid(1, 1, {1.0}), NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  EXPECT_FALSE(run_mp_cholesky(m, d, a.view(), 2).factorized);
}

TEST(MpCholesky, MovesFewerBlocksThanLu) {
  // Cholesky broadcasts one (symmetric) panel per step where LU moves two
  // distinct ones; with the same machine and matrix its traffic is lower.
  const std::size_t n = 32, block = 4;
  Rng rng(48);
  Matrix spd(n, n);
  fill_spd(spd.view(), rng);
  Matrix a_lu(n, n), a_ch(n, n);
  a_lu.view().copy_from(spd.view());
  a_ch.view().copy_from(spd.view());
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  const MpReport lu = run_mp_lu(m, d, a_lu.view(), block);
  const MpReport ch = run_mp_cholesky(m, d, a_ch.view(), block);
  EXPECT_LT(ch.blocks_moved, lu.blocks_moved);
}

// ----------------------------------------------------- MP QR

// Rebuilds Q * R from the packed factored form + tau and compares it to
// the original matrix.
double qr_reconstruction_error(const Matrix& orig, const Matrix& factored,
                               const std::vector<double>& tau) {
  const std::size_t rows = orig.rows(), cols = orig.cols();
  const Matrix qmat = qr_form_q(factored.view(), tau);
  Matrix r(cols, cols, 0.0);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = factored.view()(i, j);
  Matrix prod(rows, cols, 0.0);
  gemm_reference(Trans::No, Trans::No, 1.0, qmat.view(), r.view(), 0.0,
                 prod.view());
  return max_abs_diff(prod.view(), orig.view()) / norm_max(orig.view());
}

TEST(MpQr, ReconstructsOriginalSquareMatrix) {
  // 22 = 4*5 + 2 adds ragged edge blocks; 150 = 3*40 + 30 does too, with
  // panels wide enough for the recursive panel factorization.
  for (const auto& [n, block] : {std::pair<std::size_t, std::size_t>{24, 4},
                                {22, 5},
                                {150, 40}}) {
    Rng rng(61);
    Matrix orig(n, n);
    fill_random(orig.view(), rng);
    Matrix a(n, n);
    a.view().copy_from(orig.view());

    const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
    const MpQrReport rep = run_mp_qr(m, d, a.view(), block);
    ASSERT_EQ(rep.tau.size(), n);
    EXPECT_LT(qr_reconstruction_error(orig, a, rep.tau), 1e-11) << "n=" << n;
    EXPECT_GT(rep.messages, 0u);
    EXPECT_GT(rep.makespan, 0.0);
  }
}

TEST(MpQr, ReconstructsTallMatrix) {
  const std::size_t rows = 32, cols = 16, block = 4;
  Rng rng(62);
  Matrix orig(rows, cols);
  fill_random(orig.view(), rng);
  Matrix a(rows, cols);
  a.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  const MpQrReport rep = run_mp_qr(m, d, a.view(), block);
  ASSERT_EQ(rep.tau.size(), cols);
  EXPECT_LT(qr_reconstruction_error(orig, a, rep.tau), 1e-11);
}

TEST(MpQr, HeterogeneousPanelDistribution) {
  const std::size_t n = 48, block = 6;
  Rng rng(63);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  Matrix a(n, n);
  a.view().copy_from(orig.view());

  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const PanelDistribution d = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 8, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het-qr");
  const Machine m{h.final().grid, NetworkModel::free()};
  const MpQrReport rep = run_mp_qr(m, d, a.view(), block);
  EXPECT_LT(qr_reconstruction_error(orig, a, rep.tau), 1e-11);
}

TEST(MpQr, BitIdenticalAcrossThreadCounts) {
  const std::size_t n = 24, block = 4;
  Rng rng(64);
  Matrix orig(n, n);
  fill_random(orig.view(), rng);
  Matrix a1(n, n), a2(n, n);
  a1.view().copy_from(orig.view());
  a2.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kSwitched, 1e-4, 2e-4, true}};
  RuntimeOptions serial, pooled;
  serial.threads = 1;
  pooled.threads = 3;
  const MpQrReport r1 =
      run_mp_qr(m, d, a1.view(), block, KernelCosts{}, nullptr, serial);
  const MpQrReport r2 =
      run_mp_qr(m, d, a2.view(), block, KernelCosts{}, nullptr, pooled);
  EXPECT_EQ(r1.tau, r2.tau);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(max_abs_diff(a1.view(), a2.view()), 0.0);
}

TEST(MpQr, MatchesSequentialFactors) {
  // The distributed compact-WY algorithm produces the same packed
  // reflectors and R as the sequential QR of the whole matrix, up to
  // roundoff — with column-loop panels (block 6) and recursive ones
  // (block 40).
  for (const auto& [n, block] : {std::pair<std::size_t, std::size_t>{18, 6},
                                {100, 40}}) {
    Rng rng(12);
    Matrix seq(n, n);
    fill_random(seq.view(), rng);
    Matrix par = seq;
    const QrResult sres = qr_factor(seq.view());
    const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const MpQrReport rep =
        run_mp_qr(Machine{g, NetworkModel::free()}, d, par.view(), block);
    EXPECT_LT(max_abs_diff(seq.view(), par.view()), 1e-10) << "n=" << n;
    ASSERT_EQ(rep.tau.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(sres.tau[i], rep.tau[i], 1e-10) << "n=" << n << " tau " << i;
  }
}

TEST(MpQr, ChargesMoreThanLuOnSameMachine) {
  const std::size_t n = 24, block = 4;
  Rng rng(14);
  Matrix a1(n, n);
  fill_diagonally_dominant(a1.view(), rng);
  Matrix a2 = a1;
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  EXPECT_GT(total_busy(run_mp_qr(m, d, a2.view(), block)),
            total_busy(run_mp_lu(m, d, a1.view(), block)));
}

TEST(MpQr, RejectsMisalignedDistribution) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  Matrix a(8, 8, 1.0);
  const Machine m{g, NetworkModel::free()};
  EXPECT_THROW(run_mp_qr(m, kl, a.view(), 2), PreconditionError);
}

TEST(MpQr, RejectsWideMatrix) {
  const CycleTimeGrid g(1, 1, {1.0});
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 1);
  Matrix a(4, 8, 1.0);
  const Machine m{g, NetworkModel::free()};
  EXPECT_THROW(run_mp_qr(m, d, a.view(), 2), PreconditionError);
}

// ----------------------------------------------------- accounting

TEST(MpAccounting, BusyMatchesSimulatorBitForBit) {
  // Every processor's pure compute time equals the discrete simulator's
  // charge for it, bit for bit: both price the same blocks at the same
  // rates, and with exactly representable charges the runtime's per-block
  // sums equal the simulator's count-times-rate products. Only the waiting
  // differs, so the network plays no part. QR is excluded: the runtime
  // factors the gathered panel at the diagonal owner.
  const std::size_t n = 24, block = 4, nb = n / block;
  const HeuristicResult h = solve_heuristic(2, 3, {1, 2, 2, 3, 4, 6});
  const CycleTimeGrid& g = h.final().grid;
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 3);
  const PanelDistribution het = PanelDistribution::from_allocation(
      g, h.final().alloc, 6, 6, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  for (const NetworkModel& net :
       {NetworkModel::free(), NetworkModel{Topology::kSwitched, 1e-3, 1e-3,
                                           true}}) {
    const Machine m{g, net};
    for (const Distribution2D* d :
         {static_cast<const Distribution2D*>(&bc),
          static_cast<const Distribution2D*>(&het)}) {
      SCOPED_TRACE(d->name());
      Rng rng(84);
      Matrix a(n, n), b(n, n), c(n, n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      EXPECT_EQ(run_mp_mmm(m, *d, a.view(), b.view(), c.view(), block).busy,
                simulate_mmm(m, *d, nb).busy);
      fill_diagonally_dominant(a.view(), rng);
      EXPECT_EQ(run_mp_lu(m, *d, a.view(), block).busy,
                simulate_lu(m, *d, nb).busy);
      fill_spd(a.view(), rng);
      EXPECT_EQ(run_mp_cholesky(m, *d, a.view(), block).busy,
                simulate_cholesky(m, *d, nb).busy);
    }
  }
  // A misaligned layout: MMM only.
  const CycleTimeGrid g2(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g2, 6, 6);
  const Machine m2{g2, NetworkModel::free()};
  Rng rng(85);
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  EXPECT_EQ(run_mp_mmm(m2, kl, a.view(), b.view(), c.view(), block).busy,
            simulate_mmm(m2, kl, nb).busy);
}

// ----------------------------------------------------- pipelining

TEST(MpPipelining, RingArrivalsAreMonotoneAlongTheRing) {
  // With one source and a hop cost, processors further along the ring see
  // the panel strictly later; the makespan reflects the last arrival.
  const NetworkModel net{Topology::kSwitched, 1.0, 0.0, true};
  const CycleTimeGrid g(1, 4, std::vector<double>(4, 1e-6));
  const PanelDistribution d = PanelDistribution::block_cyclic(1, 4);
  Matrix a(8, 8), b(8, 8), c(8, 8);
  Rng rng(51);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const Machine m{g, net};
  const MpReport rep = run_mp_mmm(m, d, a.view(), b.view(), c.view(), 2);
  // 4 steps; each step's horizontal ring has 3 hops of latency 1. With
  // negligible compute, per-step critical path ~3; rings of consecutive
  // steps pipeline through the network, so the makespan sits between the
  // one-ring cost and the fully serialized bound.
  EXPECT_GE(rep.makespan, 3.0);
  EXPECT_LE(rep.makespan, 4.0 * 3.0 + 1.0);
}

TEST(MpPipelining, SlowNetworkDominatesMakespan) {
  const CycleTimeGrid g(2, 2, std::vector<double>(4, 1e-9));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  Matrix a(16, 16), b(16, 16), c(16, 16);
  Rng rng(52);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const Machine m{g, {Topology::kSwitched, 0.5, 0.5, true}};
  const MpReport rep = run_mp_mmm(m, d, a.view(), b.view(), c.view(), 4);
  double busy_total = 0.0;
  for (double x : rep.busy) busy_total += x;
  EXPECT_GT(rep.makespan, 100.0 * busy_total);  // pure comm regime
}

TEST(MpPipelining, EthernetSlowerThanSwitchedEndToEnd) {
  Rng rng(53);
  const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.2));
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  Matrix a(16, 16), b(16, 16), c(16, 16);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const Machine sw{g, {Topology::kSwitched, 1e-2, 1e-2, true}};
  const Machine eth{g, {Topology::kEthernet, 1e-2, 1e-2, true}};
  const double t_sw =
      run_mp_mmm(sw, d, a.view(), b.view(), c.view(), 4).makespan;
  const double t_eth =
      run_mp_mmm(eth, d, a.view(), b.view(), c.view(), 4).makespan;
  EXPECT_GE(t_eth, t_sw);
}

TEST(MpPipelining, FasterProcessorsFinishEarlier) {
  // Async execution: the per-processor finish times reflect their load;
  // with block-cyclic on a heterogeneous grid the fast processor's clock
  // ends well below the slow one's.
  Rng rng(54);
  const CycleTimeGrid g(2, 2, {0.1, 0.1, 0.1, 1.0});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  Matrix a(16, 16), b(16, 16), c(16, 16);
  fill_random(a.view(), rng);
  fill_random(b.view(), rng);
  const Machine m{g, NetworkModel::free()};
  const MpReport rep = run_mp_mmm(m, d, a.view(), b.view(), c.view(), 4);
  EXPECT_LT(rep.clock[0], rep.clock[3]);
  EXPECT_NEAR(rep.makespan, rep.clock[3], 1e-12);
}

TEST(MpLu, LookaheadPreservesNumericsAndNeverSlowsDown) {
  const std::size_t n = 48, block = 4;
  Rng rng(45);
  Matrix orig(n, n);
  fill_diagonally_dominant(orig.view(), rng);
  Matrix base(n, n), look(n, n);
  base.view().copy_from(orig.view());
  look.view().copy_from(orig.view());

  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, {Topology::kSwitched, 1e-3, 1e-3, true}};
  const KernelCosts costs;
  const MpReport r_base = run_mp_lu(m, d, base.view(), block, costs, false);
  const MpReport r_look = run_mp_lu(m, d, look.view(), block, costs, true);

  // Identical arithmetic (only the virtual schedule differs).
  EXPECT_LT(max_abs_diff(base.view(), look.view()), 0.0 + 1e-15);
  // Same total work.
  for (std::size_t i = 0; i < r_base.busy.size(); ++i)
    EXPECT_NEAR(r_base.busy[i], r_look.busy[i], 1e-9);
  // Lookahead takes the panel off the critical path: never slower.
  EXPECT_LE(r_look.makespan, r_base.makespan + 1e-9);
}

TEST(MpLu, LookaheadHelpsWhenPanelOwnerIsLoaded) {
  // A grid whose fastest processor owns the panel column under
  // block-cyclic: the serial panel chain is the bottleneck, and deferring
  // the rest-updates shortens the makespan measurably.
  const std::size_t n = 64, block = 4;
  Rng rng(49);
  Matrix a1(n, n), a2(n, n);
  fill_diagonally_dominant(a1.view(), rng);
  a2.view().copy_from(a1.view());
  const CycleTimeGrid g(2, 2, {1.0, 1.0, 1.0, 1.0});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  const KernelCosts costs;
  const double t0 = run_mp_lu(m, d, a1.view(), block, costs, false).makespan;
  const double t1 = run_mp_lu(m, d, a2.view(), block, costs, true).makespan;
  EXPECT_LT(t1, t0);
}

TEST(MpLu, MessageTrafficScalesWithProblem) {
  Rng rng(44);
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const Machine m{g, NetworkModel::free()};
  Matrix small(16, 16), large(32, 32);
  fill_diagonally_dominant(small.view(), rng);
  fill_diagonally_dominant(large.view(), rng);
  const MpReport r_small = run_mp_lu(m, d, small.view(), 4);
  const MpReport r_large = run_mp_lu(m, d, large.view(), 4);
  EXPECT_GT(r_large.messages, r_small.messages);
  EXPECT_GT(r_large.blocks_moved, r_small.blocks_moved);
}

}  // namespace
}  // namespace hetgrid
