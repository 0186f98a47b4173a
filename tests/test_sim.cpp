// Tests for the bulk-synchronous HNOW simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/heuristic.hpp"
#include "core/rank1_solver.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

Machine homogeneous_machine(std::size_t p, std::size_t q, double t,
                            NetworkModel net = NetworkModel::free()) {
  return Machine{CycleTimeGrid(p, q, std::vector<double>(p * q, t)), net};
}

// ----------------------------------------------------- golden fingerprints

// FNV-1a over the exact bytes of every value fed in, so two runs agree
// only if every double matches bit for bit.
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
};

void fingerprint_report(Fingerprint& fp, const SimReport& rep) {
  fp.str(rep.kernel);
  fp.str(rep.distribution);
  fp.f64(rep.total_time);
  fp.f64(rep.compute_time);
  fp.f64(rep.comm_time);
  fp.f64(rep.perfect_compute_bound);
  fp.u64(rep.busy.size());
  for (double b : rep.busy) fp.f64(b);
  fp.u64(rep.steps.size());
  for (const StepRecord& s : rep.steps) {
    fp.u64(s.step);
    fp.f64(s.panel);
    fp.f64(s.row);
    fp.f64(s.update);
    fp.f64(s.comm);
  }
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

SimReport simulate_kernel(const std::string& kernel, const Machine& m,
                          const Distribution2D& d, std::size_t nb,
                          TraceSink* sink) {
  if (kernel == "mmm") return simulate_mmm(m, d, nb, {}, sink);
  if (kernel == "lu") return simulate_lu(m, d, nb, {}, sink);
  if (kernel == "qr") return simulate_qr(m, d, nb, {}, sink);
  return simulate_cholesky(m, d, nb, {}, sink);
}

TEST(SimGolden, ReportsAndTracesMatchRecordedFingerprints) {
  // Pins every SimReport field and the full trace stream of all four
  // kernels on a heterogeneous 2x3 grid, under an aligned and a misaligned
  // distribution and both topologies. The expected values were recorded
  // from the static simulators before the rebalancing code replaced them,
  // so this is the contract that the drift-free, rebalance-off path still
  // reproduces the paper's model bit for bit.
  const CycleTimeGrid grid(2, 3, {0.7, 1.3, 2.9, 1.1, 3.7, 5.3});
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 3);
  const KalinovLastovetskyDistribution kl(grid, 5, 7);
  const NetworkModel switched{Topology::kSwitched, 0.05, 0.1, true};
  const NetworkModel ethernet{Topology::kEthernet, 0.05, 0.1, false};
  struct Case {
    const char* kernel;
    const Distribution2D* dist;
    const NetworkModel* net;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"mmm", &bc, &switched, 0xb6b830c8c288069ull},
      {"mmm", &bc, &ethernet, 0x8bcfc5f41007c1e1ull},
      {"mmm", &kl, &switched, 0x2a285ac6e289951bull},
      {"mmm", &kl, &ethernet, 0x725897451d177b1full},
      {"lu", &bc, &switched, 0x505e1d7355823785ull},
      {"lu", &bc, &ethernet, 0x8a1c0aa1d5fbd286ull},
      {"lu", &kl, &switched, 0xbe7c1c9c0378a599ull},
      {"lu", &kl, &ethernet, 0xbf9a29dfd61785aull},
      {"qr", &bc, &switched, 0x72798f659ba90dc2ull},
      {"qr", &bc, &ethernet, 0xc3ef2da3c52f3f3full},
      {"qr", &kl, &switched, 0xbb7dd2a1c587bc47ull},
      {"qr", &kl, &ethernet, 0xb01e03059eec6892ull},
      {"cholesky", &bc, &switched, 0xc57e0d844fa76740ull},
      {"cholesky", &bc, &ethernet, 0x963871e49d29809eull},
      {"cholesky", &kl, &switched, 0x13675e8ef2fa7d29ull},
      {"cholesky", &kl, &ethernet, 0x5744bf04722daebbull},
  };
  for (const Case& c : cases) {
    const Machine machine{grid, *c.net};
    SCOPED_TRACE(testing::Message()
                 << c.kernel << " " << c.dist->name() << " "
                 << (c.net == &switched ? "switched" : "ethernet"));
    MemoryTraceSink sink;
    const SimReport rep = simulate_kernel(c.kernel, machine, *c.dist, 8, &sink);
    Fingerprint fp;
    fingerprint_report(fp, rep);
    fingerprint_events(fp, sink.events());
    EXPECT_EQ(fp.h, c.expected) << std::hex << "0x" << fp.h << "ull";
    // Rebalancing is off by default: no rebalancer activity at all.
    EXPECT_EQ(rep.resolves, 0u);
    EXPECT_EQ(rep.migrations, 0u);
    EXPECT_EQ(rep.blocks_moved, 0u);
    EXPECT_TRUE(rep.events.empty());

    // The sink is a pure tap: an untraced run reports the same bits.
    Fingerprint traced, plain;
    fingerprint_report(traced, rep);
    fingerprint_report(plain,
                       simulate_kernel(c.kernel, machine, *c.dist, 8, nullptr));
    EXPECT_EQ(traced.h, plain.h);
  }
}

// ----------------------------------------------------- MMM analytics

TEST(SimMmm, HomogeneousGridMatchesClosedForm) {
  // p=q=2, t=0.5, nb=8, free network: each step every processor updates
  // 16 blocks -> step = 8, total = 64.
  const Machine m = homogeneous_machine(2, 2, 0.5);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_mmm(m, d, 8);
  EXPECT_DOUBLE_EQ(rep.compute_time, 64.0);
  EXPECT_DOUBLE_EQ(rep.comm_time, 0.0);
  EXPECT_DOUBLE_EQ(rep.total_time, 64.0);
  EXPECT_NEAR(rep.average_utilization(), 1.0, 1e-12);
  EXPECT_NEAR(rep.slowdown_vs_perfect(), 1.0, 1e-12);
}

TEST(SimMmm, BlockCyclicOnHeterogeneousGridRunsAtSlowestSpeed) {
  // Abstract's claim: uniform block-cyclic limits performance to the
  // slowest processor. With t = {1,2;3,6} and nb divisible by the grid,
  // each processor owns nb^2/4 blocks; the critical path is t=6.
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const Machine m{g, NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_mmm(m, d, 8);
  EXPECT_DOUBLE_EQ(rep.compute_time, 8.0 * 16.0 * 6.0);
}

TEST(SimMmm, PerfectPanelRecoversCapacityBound) {
  // The rank-1 grid with its perfect 4x3 panel: simulated compute time
  // equals the perfect bound exactly.
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const Machine m{g, NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::from_counts(
      {3, 1}, {2, 1}, g, PanelOrder::kContiguous, PanelOrder::kContiguous,
      "perfect");
  const SimReport rep = simulate_mmm(m, d, 12);
  EXPECT_NEAR(rep.total_time, rep.perfect_compute_bound, 1e-9);
  EXPECT_NEAR(rep.average_utilization(), 1.0, 1e-12);
}

TEST(SimMmm, HeuristicPanelBeatsBlockCyclic) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t p = 2 + rng.below(2), q = 2 + rng.below(2);
    const std::vector<double> pool = rng.cycle_times(p * q, 0.05);
    const HeuristicResult h = solve_heuristic(p, q, pool);
    const Machine m{h.final().grid, NetworkModel::free()};
    const PanelDistribution het = PanelDistribution::from_allocation(
        h.final().grid, h.final().alloc, 4 * p, 4 * q,
        PanelOrder::kContiguous, PanelOrder::kContiguous, "het");
    const PanelDistribution bc = PanelDistribution::block_cyclic(p, q);
    const std::size_t nb = 8 * p * q;
    const double t_het = simulate_mmm(m, het, nb).total_time;
    const double t_bc = simulate_mmm(m, bc, nb).total_time;
    EXPECT_LE(t_het, t_bc * (1.0 + 1e-9)) << "trial " << trial;
  }
}

TEST(SimMmm, TotalIsComputePlusComm) {
  const Machine m = homogeneous_machine(2, 2, 1.0,
                                        {Topology::kSwitched, 1e-3, 1e-3,
                                         true});
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_mmm(m, d, 6);
  EXPECT_GT(rep.comm_time, 0.0);
  EXPECT_DOUBLE_EQ(rep.total_time, rep.compute_time + rep.comm_time);
}

TEST(SimMmm, PerfectBoundNeverExceeded) {
  Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    const CycleTimeGrid g(2, 3, rng.cycle_times(6, 0.05));
    const Machine m{g, NetworkModel::free()};
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
    const SimReport rep = simulate_mmm(m, d, 12);
    EXPECT_GE(rep.total_time, rep.perfect_compute_bound - 1e-9);
  }
}

// ----------------------------------------------------- network model

TEST(Network, EthernetSerializesBroadcasts) {
  const NetworkModel switched{Topology::kSwitched, 1e-3, 1e-3, true};
  const NetworkModel ethernet{Topology::kEthernet, 1e-3, 1e-3, true};
  const Machine ms = homogeneous_machine(3, 3, 1.0, switched);
  const Machine me = homogeneous_machine(3, 3, 1.0, ethernet);
  const PanelDistribution d = PanelDistribution::block_cyclic(3, 3);
  const SimReport rs = simulate_mmm(ms, d, 9);
  const SimReport re = simulate_mmm(me, d, 9);
  EXPECT_GT(re.comm_time, rs.comm_time);
  EXPECT_DOUBLE_EQ(re.compute_time, rs.compute_time);
}

TEST(Network, PipeliningReducesSwitchedBroadcasts) {
  const NetworkModel piped{Topology::kSwitched, 1e-3, 1e-3, true};
  const NetworkModel store{Topology::kSwitched, 1e-3, 1e-3, false};
  const Machine mp = homogeneous_machine(2, 4, 1.0, piped);
  const Machine ms = homogeneous_machine(2, 4, 1.0, store);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 4);
  EXPECT_LT(simulate_mmm(mp, d, 8).comm_time,
            simulate_mmm(ms, d, 8).comm_time);
}

TEST(Network, BroadcastCostZeroForSingletonLine) {
  const NetworkModel net{Topology::kSwitched, 1e-3, 1e-3, true};
  EXPECT_DOUBLE_EQ(net.broadcast_cost(5, 1), 0.0);
  EXPECT_DOUBLE_EQ(net.broadcast_cost(0, 4), 0.0);
}

TEST(Network, NegativeCostsRejected) {
  Machine m = homogeneous_machine(2, 2, 1.0);
  m.net.latency = -1.0;
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  EXPECT_THROW(simulate_mmm(m, d, 4), PreconditionError);
}

// ----------------------------------------------------- LU / QR

TEST(SimLu, HomogeneousMatchesHandComputedSteps) {
  // 2x2 homogeneous grid (t=1), nb=2, free network, default costs:
  // step 0: panel rows {0,1} in column 0 -> max 1 block * 0.5;
  //         row panel 1 block * 0.5; trailing 1 block * 1.0 -> 2.0
  // step 1: panel 1 block * 0.5 -> 0.5; rest empty.
  const Machine m = homogeneous_machine(2, 2, 1.0);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  const SimReport rep = simulate_lu(m, d, 2);
  EXPECT_DOUBLE_EQ(rep.compute_time, 0.5 + 0.5 + 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(rep.comm_time, 0.0);
}

TEST(SimLu, TrailingWorkDominatedBySlowestUnderBlockCyclic) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 6});
  const Machine m{g, NetworkModel::free()};
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 6});
  const PanelDistribution het = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 6, PanelOrder::kContiguous,
      PanelOrder::kInterleaved, "het");
  const Machine mh{h.final().grid, NetworkModel::free()};
  const std::size_t nb = 48;
  EXPECT_LT(simulate_lu(mh, het, nb).total_time,
            simulate_lu(m, bc, nb).total_time);
}

TEST(SimLu, PerfectBoundHolds) {
  Rng rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    const CycleTimeGrid g(2, 2, rng.cycle_times(4, 0.05));
    const Machine m{g, NetworkModel::free()};
    const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
    const SimReport rep = simulate_lu(m, d, 16);
    EXPECT_GE(rep.total_time, rep.perfect_compute_bound - 1e-9);
  }
}

TEST(SimLu, BusyTimesBoundedByComputeCriticalPath) {
  const CycleTimeGrid g(2, 3, {1, 2, 3, 2, 4, 6});
  const Machine m{g, NetworkModel::free()};
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 3);
  const SimReport rep = simulate_lu(m, d, 12);
  for (double b : rep.busy) EXPECT_LE(b, rep.compute_time + 1e-9);
}

TEST(SimQr, CostsExceedLuWithDefaultWeights) {
  const Machine m = homogeneous_machine(2, 2, 1.0);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  EXPECT_GT(simulate_qr(m, d, 8).total_time,
            simulate_lu(m, d, 8).total_time);
}

TEST(SimQr, SameCommunicationPatternAsLu) {
  const NetworkModel net{Topology::kSwitched, 1e-3, 1e-3, true};
  const Machine m = homogeneous_machine(2, 2, 1.0, net);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  EXPECT_DOUBLE_EQ(simulate_qr(m, d, 8).comm_time,
                   simulate_lu(m, d, 8).comm_time);
}

TEST(Sim, InterleavedColumnsBeatContiguousForLu) {
  // The Section 3.2.2 argument: the shrinking trailing matrix punishes
  // contiguous column runs; the 1D interleaving fixes it.
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const HeuristicResult h = solve_heuristic(2, 2, {1, 2, 3, 5});
  const Machine m{h.final().grid, NetworkModel::free()};
  const PanelDistribution inter = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 6, PanelOrder::kInterleaved,
      PanelOrder::kInterleaved, "interleaved");
  const PanelDistribution contig = PanelDistribution::from_allocation(
      h.final().grid, h.final().alloc, 8, 6, PanelOrder::kContiguous,
      PanelOrder::kContiguous, "contiguous");
  const std::size_t nb = 48;
  EXPECT_LE(simulate_lu(m, inter, nb).total_time,
            simulate_lu(m, contig, nb).total_time * (1.0 + 1e-9));
}

TEST(Sim, KalinovLastovetskyBalancesComputeButPaysEthernetComm) {
  const CycleTimeGrid g(2, 2, {1, 2, 3, 5});
  const KalinovLastovetskyDistribution kl(g, {4, 7}, 61);
  const PanelDistribution bc = PanelDistribution::block_cyclic(2, 2);
  const Machine free_net{g, NetworkModel::free()};
  const std::size_t nb = 56;  // multiple of lcm(4,7)
  // Pure compute: K-L beats block-cyclic clearly.
  EXPECT_LT(simulate_mmm(free_net, kl, nb).compute_time,
            simulate_mmm(free_net, bc, nb).compute_time);
}

TEST(Sim, RejectsMismatchedGridAndDistribution) {
  const Machine m = homogeneous_machine(2, 2, 1.0);
  const PanelDistribution d = PanelDistribution::block_cyclic(3, 3);
  EXPECT_THROW(simulate_mmm(m, d, 4), PreconditionError);
  EXPECT_THROW(simulate_lu(m, d, 4), PreconditionError);
}

TEST(Sim, ZeroBlocksRejected) {
  const Machine m = homogeneous_machine(2, 2, 1.0);
  const PanelDistribution d = PanelDistribution::block_cyclic(2, 2);
  EXPECT_THROW(simulate_mmm(m, d, 0), PreconditionError);
}

}  // namespace
}  // namespace hetgrid
