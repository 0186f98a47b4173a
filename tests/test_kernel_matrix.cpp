// Cross-product consistency suite: every kernel x distribution x grid
// shape combination runs through the BSP simulator and (where numerics
// apply) the message-passing runtime, checking the universal invariants:
//   * totals decompose (total = compute + comm),
//   * the perfect-balance bound is never beaten,
//   * per-processor busy times stay within the compute critical path,
//   * simulator and runtime charge every processor the same compute,
//   * executed numerics match the sequential kernels.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/heuristic.hpp"
#include "dist/kalinov_lastovetsky.hpp"
#include "dist/panel_distribution.hpp"
#include "matrix/cholesky.hpp"
#include "matrix/gemm.hpp"
#include "matrix/lu.hpp"
#include "matrix/norms.hpp"
#include "matrix/qr.hpp"
#include "mp/mp_runtime.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hetgrid {
namespace {

enum class Kernel { kMmm, kLu, kQr, kCholesky };
enum class DistKind { kBlockCyclic, kHetContiguous, kHetInterleaved, kKl };

std::string kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kMmm: return "mmm";
    case Kernel::kLu: return "lu";
    case Kernel::kQr: return "qr";
    case Kernel::kCholesky: return "cholesky";
  }
  return "?";
}

std::string dist_name(DistKind d) {
  switch (d) {
    case DistKind::kBlockCyclic: return "block-cyclic";
    case DistKind::kHetContiguous: return "het-contiguous";
    case DistKind::kHetInterleaved: return "het-interleaved";
    case DistKind::kKl: return "kalinov-lastovetsky";
  }
  return "?";
}

struct Combo {
  Kernel kernel;
  DistKind dist;
  std::size_t p, q;

  friend std::ostream& operator<<(std::ostream& os, const Combo& c) {
    return os << kernel_name(c.kernel) << "/" << dist_name(c.dist) << "/"
              << c.p << "x" << c.q;
  }
};

struct ComboSetup {
  CycleTimeGrid grid;
  std::unique_ptr<Distribution2D> dist;
};

ComboSetup make_setup(const Combo& c, Rng& rng) {
  const std::vector<double> pool = rng.cycle_times(c.p * c.q, 0.1);
  if (c.dist == DistKind::kBlockCyclic) {
    return {CycleTimeGrid::sorted_row_major(c.p, c.q, pool),
            std::make_unique<PanelDistribution>(
                PanelDistribution::block_cyclic(c.p, c.q))};
  }
  if (c.dist == DistKind::kKl) {
    CycleTimeGrid g = CycleTimeGrid::sorted_row_major(c.p, c.q, pool);
    auto d = std::make_unique<KalinovLastovetskyDistribution>(g, 4 * c.p,
                                                              4 * c.q);
    return {std::move(g), std::move(d)};
  }
  const HeuristicResult h = solve_heuristic(c.p, c.q, pool);
  const PanelOrder order = c.dist == DistKind::kHetInterleaved
                               ? PanelOrder::kInterleaved
                               : PanelOrder::kContiguous;
  auto d = std::make_unique<PanelDistribution>(
      PanelDistribution::from_allocation(h.final().grid, h.final().alloc,
                                         4 * c.p, 4 * c.q,
                                         PanelOrder::kContiguous, order,
                                         dist_name(c.dist)));
  return {h.final().grid, std::move(d)};
}

SimReport run_sim(Kernel k, const Machine& m, const Distribution2D& d,
                  std::size_t nb) {
  switch (k) {
    case Kernel::kMmm: return simulate_mmm(m, d, nb);
    case Kernel::kLu: return simulate_lu(m, d, nb);
    case Kernel::kQr: return simulate_qr(m, d, nb);
    case Kernel::kCholesky: return simulate_cholesky(m, d, nb);
  }
  HG_INTERNAL_CHECK(false, "unreachable");
}

class KernelMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(KernelMatrix, SimulatorInvariantsHold) {
  const Combo c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.p * 1000 + c.q * 100 +
                                     static_cast<int>(c.kernel) * 10 +
                                     static_cast<int>(c.dist)));
  ComboSetup s = make_setup(c, rng);
  const Machine m{s.grid, {Topology::kSwitched, 1e-3, 1e-3, true}};
  const std::size_t nb = 4 * c.p * c.q;
  const SimReport rep = run_sim(c.kernel, m, *s.dist, nb);

  EXPECT_NEAR(rep.total_time, rep.compute_time + rep.comm_time, 1e-9);
  EXPECT_GE(rep.total_time, rep.perfect_compute_bound - 1e-9);
  EXPECT_GT(rep.compute_time, 0.0);
  for (double b : rep.busy) EXPECT_LE(b, rep.compute_time + 1e-9);
  EXPECT_GT(rep.average_utilization(), 0.0);
  EXPECT_LE(rep.average_utilization(), 1.0 + 1e-9);
  EXPECT_EQ(rep.steps.size(), nb);
}

TEST_P(KernelMatrix, RuntimeNumericsAndAccountingAgree) {
  const Combo c = GetParam();
  // The runtime's LU/QR/Cholesky require aligned distributions; K-L is
  // exercised for MMM only (the paper makes the same restriction argument
  // in Section 3.1.2).
  if (c.dist == DistKind::kKl && c.kernel != Kernel::kMmm) GTEST_SKIP();

  Rng rng(static_cast<std::uint64_t>(7000 + c.p * 100 + c.q * 10 +
                                     static_cast<int>(c.kernel)));
  ComboSetup s = make_setup(c, rng);
  const Machine m{s.grid, NetworkModel::free()};
  const std::size_t block = 4;
  const std::size_t nb = 4 * c.p * c.q;
  const std::size_t n = nb * block;

  // Every processor's pure compute time equals the simulator's charge for
  // it (QR excepted: the runtime factors the gathered panel at the diagonal
  // owner, the simulator spreads it over the panel's owners). The runtime
  // sums one charge per block where the simulator multiplies a block count
  // by the rate, so with these random cycle-times the two agree to
  // rounding; MpAccounting.BusyMatchesSimulatorBitForBit pins bit equality
  // on exactly representable charges.
  const auto expect_same_busy = [](const std::vector<double>& mp,
                                   const std::vector<double>& sim) {
    ASSERT_EQ(mp.size(), sim.size());
    for (std::size_t i = 0; i < mp.size(); ++i)
      EXPECT_NEAR(mp[i], sim[i], 1e-12 * sim[i]) << "proc " << i;
  };
  switch (c.kernel) {
    case Kernel::kMmm: {
      Matrix a(n, n), b(n, n), cc(n, n), ref(n, n, 0.0);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      const MpReport mp =
          run_mp_mmm(m, *s.dist, a.view(), b.view(), cc.view(), block);
      gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, ref.view());
      EXPECT_LT(max_abs_diff(cc.view(), ref.view()), 1e-10 * n);
      expect_same_busy(mp.busy, simulate_mmm(m, *s.dist, nb).busy);
      break;
    }
    case Kernel::kLu: {
      Matrix a(n, n);
      fill_diagonally_dominant(a.view(), rng);
      Matrix orig(n, n);
      orig.view().copy_from(a.view());
      const MpReport mp = run_mp_lu(m, *s.dist, a.view(), block);
      ASSERT_TRUE(mp.factorized);
      const Matrix prod = lu_reconstruct(a.view(), n);
      EXPECT_LT(max_abs_diff(prod.view(), orig.view()) /
                    norm_max(orig.view()),
                1e-10);
      expect_same_busy(mp.busy, simulate_lu(m, *s.dist, nb).busy);
      break;
    }
    case Kernel::kQr: {
      Matrix a(n, n), orig(n, n);
      fill_random(a.view(), rng);
      orig.view().copy_from(a.view());
      const MpQrReport mp = run_mp_qr(m, *s.dist, a.view(), block);
      const Matrix qmat = qr_form_q(a.view(), mp.tau);
      Matrix r(n, n, 0.0);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i <= j; ++i) r(i, j) = a(i, j);
      Matrix prod(n, n, 0.0);
      gemm(Trans::No, Trans::No, 1.0, qmat.view(), r.view(), 0.0,
           prod.view());
      EXPECT_LT(max_abs_diff(prod.view(), orig.view()), 1e-9 * n);
      break;
    }
    case Kernel::kCholesky: {
      Matrix a(n, n), orig(n, n);
      fill_spd(a.view(), rng);
      orig.view().copy_from(a.view());
      const MpReport mp = run_mp_cholesky(m, *s.dist, a.view(), block);
      ASSERT_TRUE(mp.factorized);
      const Matrix rec = cholesky_reconstruct(a.view());
      EXPECT_LT(max_abs_diff(rec.view(), orig.view()) /
                    norm_max(orig.view()),
                1e-10);
      expect_same_busy(mp.busy, simulate_cholesky(m, *s.dist, nb).busy);
      break;
    }
  }
}

std::vector<Combo> all_combos() {
  std::vector<Combo> out;
  const std::pair<std::size_t, std::size_t> shapes[] = {{1, 2}, {2, 2},
                                                        {2, 3}, {3, 3}};
  for (Kernel k : {Kernel::kMmm, Kernel::kLu, Kernel::kQr,
                   Kernel::kCholesky})
    for (DistKind d :
         {DistKind::kBlockCyclic, DistKind::kHetContiguous,
          DistKind::kHetInterleaved, DistKind::kKl})
      for (auto [p, q] : shapes) out.push_back({k, d, p, q});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, KernelMatrix, ::testing::ValuesIn(all_combos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      const Combo& c = info.param;
      return kernel_name(c.kernel) + "_" +
             [&] {
               std::string s = dist_name(c.dist);
               for (char& ch : s)
                 if (ch == '-') ch = '_';
               return s;
             }() +
             "_" + std::to_string(c.p) + "x" + std::to_string(c.q);
    });

}  // namespace
}  // namespace hetgrid
