// Tests for the placement service (doc/server.md): wire protocol
// round-trips and typed decode errors, Theorem-1 canonicalization
// properties (permutation and power-of-two scale equivalence), the
// monotone cache-upgrade guarantee, deadline fallback with async exact
// refinement, concurrent loopback bit-identity, and the TCP / unix-domain
// socket round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arrangement.hpp"
#include "core/heuristic.hpp"
#include "obs/imbalance.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/solution_cache.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hetgrid::serve {
namespace {

PlacementRequest make_request(std::size_t p, std::size_t q,
                              std::vector<double> times,
                              Mode mode = Mode::kAuto,
                              std::uint64_t deadline_us = 0) {
  PlacementRequest req;
  req.p = static_cast<std::uint16_t>(p);
  req.q = static_cast<std::uint16_t>(q);
  req.mode = mode;
  req.deadline_us = deadline_us;
  req.times = std::move(times);
  return req;
}

// Runs serve_fd on its own thread for the life of a test. The destructor
// shuts the server down, joins the thread and removes the unix socket path
// (if any), so a failing ASSERT_* that returns early reports one failure
// instead of destroying a joinable std::thread (std::terminate). Declare
// it after the server it serves.
class ServingThread {
 public:
  ServingThread(PlacementServer& server, int listen_fd,
                std::string unix_path = {})
      : server_(server),
        unix_path_(std::move(unix_path)),
        thread_([this, listen_fd] { server_.serve_fd(listen_fd); }) {}
  ~ServingThread() {
    server_.shutdown();
    thread_.join();
    if (!unix_path_.empty()) std::remove(unix_path_.c_str());
  }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

 private:
  PlacementServer& server_;
  std::string unix_path_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(Protocol, RequestRoundTrip) {
  const PlacementRequest req =
      make_request(2, 3, {1, 2, 3, 4.5, 5, 6}, Mode::kExact, 12345);
  const Decoded d = decode_payload(encode_request(req));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kRequest);
  EXPECT_EQ(d.request.p, 2);
  EXPECT_EQ(d.request.q, 3);
  EXPECT_EQ(d.request.mode, Mode::kExact);
  EXPECT_EQ(d.request.deadline_us, 12345u);
  EXPECT_EQ(d.request.times, req.times);
}

TEST(Protocol, ResponseRoundTrip) {
  PlacementResponse rsp;
  rsp.p = 2;
  rsp.q = 2;
  rsp.solver = SolverKind::kExact;
  rsp.cache_state = CacheState::kHitUpgraded;
  rsp.objective = 2.75;
  rsp.r = {1.0, 0.5};
  rsp.c = {0.25, 0.125};
  rsp.perm = {3, 1, 0, 2};
  const Decoded d = decode_payload(encode_response(rsp));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kResponse);
  EXPECT_EQ(d.response.solver, SolverKind::kExact);
  EXPECT_EQ(d.response.cache_state, CacheState::kHitUpgraded);
  EXPECT_EQ(d.response.objective, 2.75);
  EXPECT_EQ(d.response.r, rsp.r);
  EXPECT_EQ(d.response.c, rsp.c);
  EXPECT_EQ(d.response.perm, rsp.perm);
}

TEST(Protocol, ErrorRoundTrip) {
  const Decoded d =
      decode_payload(encode_error(WireError::kTooCostly, "budget"));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kError);
  EXPECT_EQ(d.error.code, WireError::kTooCostly);
  EXPECT_EQ(d.error.detail, "budget");
  const Decoded empty = decode_payload(encode_error(WireError::kShutdown, ""));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.error.detail, "");
}

TEST(Protocol, MalformedFramesYieldTypedErrors) {
  const std::vector<std::uint8_t> good =
      encode_request(make_request(2, 2, {1, 2, 3, 6}));
  ASSERT_TRUE(decode_payload(good).ok());

  // Too short to hold the header.
  EXPECT_EQ(decode_payload(good.data(), 7).parse_error, WireError::kBadFrame);

  // Payload byte layout (protocol.cpp): magic[0..3] version[4..5] type[6]
  // reserved[7] p[8..9] q[10..11] mode[12] ...
  auto corrupt = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = good;
    bytes[at] = value;
    return decode_payload(bytes).parse_error;
  };
  EXPECT_EQ(corrupt(0, 0x00), WireError::kBadMagic);
  EXPECT_EQ(corrupt(4, 0x00), WireError::kBadVersion);  // version 0
  EXPECT_EQ(corrupt(4, 99), WireError::kBadVersion);    // future version
  EXPECT_EQ(corrupt(6, 42), WireError::kBadType);
  EXPECT_EQ(corrupt(12, 9), WireError::kBadMode);
  EXPECT_EQ(corrupt(8, 0), WireError::kBadDimensions);  // p = 0

  // Truncated times and trailing garbage are both framing errors.
  EXPECT_EQ(decode_payload(good.data(), good.size() - 3).parse_error,
            WireError::kBadFrame);
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(decode_payload(trailing).parse_error, WireError::kBadFrame);
}

TEST(Protocol, FramePrependsLittleEndianLength) {
  const std::vector<std::uint8_t> payload =
      encode_error(WireError::kOk, "abc");
  const std::vector<std::uint8_t> framed = frame(payload);
  ASSERT_EQ(framed.size(), payload.size() + 4);
  const std::size_t len = framed[0] | framed[1] << 8 | framed[2] << 16 |
                          static_cast<std::size_t>(framed[3]) << 24;
  EXPECT_EQ(len, payload.size());
}

// ---------------------------------------------------------------------------
// Canonicalization (Theorem 1: the solvers see only the sorted pool).

TEST(Cache, PermutationsShareOneKey) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t p = 2 + trial % 3, q = 2 + trial % 2;
    std::vector<double> times = rng.cycle_times(p * q);
    const CanonicalPlacement base = canonicalize_placement(p, q, times);
    std::vector<double> shuffled = times;
    rng.shuffle(shuffled);
    const CanonicalPlacement perm = canonicalize_placement(p, q, shuffled);
    EXPECT_EQ(base.hash, perm.hash);
    EXPECT_EQ(base.unit, perm.unit);
    EXPECT_EQ(base.scale, perm.scale);
    EXPECT_EQ(base.sorted, perm.sorted);
    // The back-map must reproduce the request layout it was built from.
    for (std::size_t k = 0; k < p * q; ++k)
      EXPECT_EQ(shuffled[perm.sorted_to_request[k]], perm.sorted[k]);
  }
}

TEST(Cache, Pow2ScalingsShareOneKey) {
  Rng rng(12);
  const double scales[] = {2.0, 0.5, 4.0, 0.25, 1024.0};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t p = 2, q = 2 + trial % 3;
    std::vector<double> times = rng.cycle_times(p * q);
    const CanonicalPlacement base = canonicalize_placement(p, q, times);
    const double alpha = scales[trial % 5];
    std::vector<double> scaled = times;
    for (double& t : scaled) t *= alpha;
    rng.shuffle(scaled);
    const CanonicalPlacement key = canonicalize_placement(p, q, scaled);
    EXPECT_EQ(base.hash, key.hash);
    EXPECT_EQ(base.unit, key.unit);
    EXPECT_EQ(key.scale, base.scale * alpha);
  }
}

TEST(Cache, DistinctPoolsGetDistinctKeys) {
  const CanonicalPlacement a = canonicalize_placement(2, 2, {1, 2, 3, 6});
  CanonicalPlacement b = canonicalize_placement(2, 2, {1, 2, 3, 6.000001});
  EXPECT_NE(a.hash, b.hash);
  // Same pool, different shape: also distinct.
  const CanonicalPlacement c = canonicalize_placement(4, 1, {1, 2, 3, 6});
  EXPECT_NE(a.hash, c.hash);
}

CachedSolution fake_entry(const CanonicalPlacement& canon, bool exact,
                          double obj2) {
  CachedSolution s;
  s.p = canon.p;
  s.q = canon.q;
  s.unit = canon.unit;
  s.scale = canon.scale;
  s.exact = exact;
  s.obj2 = obj2;
  s.r.assign(canon.p, 1.0);
  s.c.assign(canon.q, 1.0);
  s.arrangement.resize(canon.p * canon.q);
  for (std::size_t k = 0; k < s.arrangement.size(); ++k)
    s.arrangement[k] = static_cast<std::uint32_t>(k);
  return s;
}

TEST(Cache, UpgradeNeverServesAWorseObjective) {
  SolutionCache cache(4);
  const CanonicalPlacement key = canonicalize_placement(2, 2, {1, 2, 3, 6});

  ASSERT_TRUE(cache.insert_or_upgrade(fake_entry(key, false, 1.0)));
  ASSERT_EQ(cache.size(), 1u);

  // An exact result that is *worse* must not displace the heuristic entry:
  // clients that already saw objective 1.0 would regress.
  EXPECT_FALSE(cache.insert_or_upgrade(fake_entry(key, true, 0.5)));
  ASSERT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.lookup(key)->obj2, 1.0);
  EXPECT_FALSE(cache.lookup(key)->exact);

  // Equal-objective exact upgrade is allowed (kind improves, value holds).
  EXPECT_TRUE(cache.insert_or_upgrade(fake_entry(key, true, 1.0)));
  EXPECT_TRUE(cache.lookup(key)->exact);
  EXPECT_TRUE(cache.lookup(key)->upgraded);

  // A strictly better objective replaces anything; a worse one never does.
  EXPECT_TRUE(cache.insert_or_upgrade(fake_entry(key, true, 1.5)));
  EXPECT_FALSE(cache.insert_or_upgrade(fake_entry(key, true, 1.25)));
  EXPECT_FALSE(cache.insert_or_upgrade(fake_entry(key, false, 2.0 - 1.0)));
  EXPECT_EQ(cache.lookup(key)->obj2, 1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SolutionCache(1).shard_count(), 1u);
  EXPECT_EQ(SolutionCache(3).shard_count(), 4u);
  EXPECT_EQ(SolutionCache(16).shard_count(), 16u);
}

TEST(Cache, ShardCountPastTheIndexBitsIsRejected) {
  // shard_for() reads 16 hash bits, so shards past 65,536 could never be
  // addressed; the constructor refuses them before allocating anything.
  EXPECT_THROW(SolutionCache(SolutionCache::kMaxShards + 1), PreconditionError);
}

// ---------------------------------------------------------------------------
// Server semantics.

TEST(Server, ValidationErrorsAreTyped) {
  PlacementServer server;
  EXPECT_EQ(server.place(make_request(0, 2, {})).error.code,
            WireError::kBadDimensions);
  EXPECT_EQ(server.place(make_request(2, 2, {1, 2, 3})).error.code,
            WireError::kBadDimensions);
  EXPECT_EQ(server.place(make_request(2, 2, {1, 2, 3, -6})).error.code,
            WireError::kBadCycleTime);
  EXPECT_EQ(server
                .place(make_request(
                    2, 2, {1, 2, 3, std::numeric_limits<double>::quiet_NaN()}))
                .error.code,
            WireError::kBadCycleTime);
  // Finite times whose inverse or sum overflows are rejected the same way.
  EXPECT_EQ(server.place(make_request(2, 2, {1e-320, 1, 1, 1})).error.code,
            WireError::kBadCycleTime);
  EXPECT_EQ(
      server.place(make_request(2, 2, {1e308, 1e308, 1e308, 1e308})).error.code,
      WireError::kBadCycleTime);
  // 4x4 = 16 processors exceeds the exact pool budget of 10.
  Rng rng(3);
  EXPECT_EQ(server
                .place(make_request(4, 4, rng.cycle_times(16), Mode::kExact))
                .error.code,
            WireError::kTooCostly);
}

TEST(Server, OverflowingCycleTimesAnswerTypedErrorOnTheWire) {
  // A pool whose sum overflows must come back as kBadCycleTime through the
  // serial loopback and over a socket connection, which a pool worker
  // serves — never as an exception that drops the connection or escapes
  // the worker. The same connection then answers a valid request.
  const PlacementRequest overflowing =
      make_request(2, 2, {1e308, 1e308, 1e308, 1e308});
  PlacementServer server;
  const Decoded single =
      decode_payload(server.handle_payload(encode_request(overflowing)));
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.type, MsgType::kError);
  EXPECT_EQ(single.error.code, WireError::kBadCycleTime);

  std::uint16_t port = 0;
  const int listen_fd = listen_tcp(0, &port);
  ASSERT_GT(port, 0);
  const ServingThread serving(server, listen_fd);
  Endpoint ep;
  ep.port = port;
  const int fd = connect_endpoint(ep);
  const Decoded bad = query_fd(fd, overflowing);
  EXPECT_TRUE(bad.ok());
  EXPECT_EQ(bad.type, MsgType::kError);
  EXPECT_EQ(bad.error.code, WireError::kBadCycleTime);
  const Decoded good = query_fd(fd, make_request(2, 2, {1, 2, 3, 6}));
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.type, MsgType::kResponse);
  ::close(fd);
}

TEST(Server, ThreadCountAboveThePoolBoundIsRejected) {
  ServerOptions opts;
  opts.threads = ThreadPool::kMaxThreads + 1;
  EXPECT_THROW({ PlacementServer server(opts); }, PreconditionError);
}

TEST(Server, UnsupportedVersionAnswersBadVersion) {
  PlacementServer server;
  std::vector<std::uint8_t> payload =
      encode_request(make_request(2, 2, {1, 2, 3, 6}));
  payload[4] = 99;  // future protocol version
  const Decoded d = decode_payload(server.handle_payload(payload));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kError);
  EXPECT_EQ(d.error.code, WireError::kBadVersion);
}

TEST(Server, ShutdownAnswersShutdown) {
  PlacementServer server;
  server.shutdown();
  const PlaceOutcome out = server.place(make_request(2, 2, {1, 2, 3, 6}));
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, WireError::kShutdown);
}

TEST(Server, ColdResponseBitIdenticalToDirectSolve) {
  Rng rng(21);
  const std::vector<double> pool = rng.cycle_times(6);
  const OptimalArrangement direct = solve_optimal_arrangement(2, 3, pool);

  PlacementServer server;
  const PlaceOutcome out = server.place(make_request(2, 3, pool));
  ASSERT_TRUE(out.ok);
  const PlacementResponse& rsp = out.response;
  EXPECT_EQ(rsp.solver, SolverKind::kExact);
  EXPECT_EQ(rsp.cache_state, CacheState::kMiss);
  EXPECT_EQ(rsp.objective, direct.solution.obj2);
  EXPECT_EQ(rsp.r, direct.solution.alloc.r);
  EXPECT_EQ(rsp.c, direct.solution.alloc.c);
  // perm lays the request's times out as the solver's arrangement.
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(pool[rsp.perm[i * 3 + j]], direct.grid(i, j));
}

TEST(Server, PermutedRequestsAreBitIdenticalCacheHits) {
  Rng rng(22);
  const std::vector<double> pool = rng.cycle_times(6);
  PlacementServer server;
  const PlaceOutcome base = server.place(make_request(3, 2, pool));
  ASSERT_TRUE(base.ok);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> shuffled = pool;
    rng.shuffle(shuffled);
    const PlaceOutcome out = server.place(make_request(3, 2, shuffled));
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.response.cache_state, CacheState::kHit);
    // Identical shares and objective, bit for bit: the canonical entry is
    // served at scale ratio exactly 1.0.
    EXPECT_EQ(out.response.r, base.response.r);
    EXPECT_EQ(out.response.c, base.response.c);
    EXPECT_EQ(out.response.objective, base.response.objective);
    // The perm re-targets the shuffled layout: slot (i,j) must carry the
    // same cycle-time as the base response's slot (i,j).
    for (std::size_t k = 0; k < shuffled.size(); ++k)
      EXPECT_EQ(shuffled[out.response.perm[k]], pool[base.response.perm[k]]);
  }
}

TEST(Server, Pow2ScaledRequestsHitAndRescaleExactly) {
  Rng rng(23);
  const std::vector<double> pool = rng.cycle_times(4);
  PlacementServer server;
  const PlaceOutcome base = server.place(make_request(2, 2, pool));
  ASSERT_TRUE(base.ok);

  const double scales[] = {2.0, 0.5, 8.0, 0.0625};
  for (double alpha : scales) {
    std::vector<double> scaled = pool;
    for (double& t : scaled) t *= alpha;
    rng.shuffle(scaled);
    const PlaceOutcome out = server.place(make_request(2, 2, scaled));
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.response.cache_state, CacheState::kHit);
    // Scale covariance, exact under powers of two: t -> alpha t maps the
    // optimum (r, c) to (r/alpha, c) and the objective to obj/alpha.
    EXPECT_EQ(out.response.objective * alpha, base.response.objective);
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ(out.response.r[i] * alpha, base.response.r[i]);
    EXPECT_EQ(out.response.c, base.response.c);
  }
}

TEST(Server, DeadlineBelowFloorFallsBackThenRefines) {
  Rng rng(24);
  const std::vector<double> pool = rng.cycle_times(6);
  const HeuristicResult heur = solve_heuristic(2, 3, pool);
  const OptimalArrangement exact = solve_optimal_arrangement(2, 3, pool);

  PlacementServer server;
  // deadline 1ms < the 20ms exact floor: auto mode degrades to the
  // heuristic even though the exact solver is affordable...
  const PlaceOutcome first =
      server.place(make_request(2, 3, pool, Mode::kAuto, 1000));
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.response.solver, SolverKind::kHeuristic);
  EXPECT_EQ(first.response.cache_state, CacheState::kMiss);
  EXPECT_EQ(first.response.objective, heur.final().obj2);

  // ...and queues an async exact refinement. After drain() the entry is
  // upgraded, and the served objective never got worse (Obj2 is maximized:
  // the exact optimum dominates the feasible heuristic point).
  server.drain();
  const PlaceOutcome second = server.place(make_request(2, 3, pool));
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.response.cache_state, CacheState::kHitUpgraded);
  EXPECT_EQ(second.response.solver, SolverKind::kExact);
  EXPECT_EQ(second.response.objective, exact.solution.obj2);
  EXPECT_GE(second.response.objective, first.response.objective);
}

TEST(Server, HeuristicModeNeverRunsExactInline) {
  Rng rng(25);
  const std::vector<double> pool = rng.cycle_times(4);
  ServerOptions opts;
  opts.async_refine = false;
  PlacementServer server(opts);
  const PlaceOutcome out =
      server.place(make_request(2, 2, pool, Mode::kHeuristic));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.response.solver, SolverKind::kHeuristic);
  // With refinement off the entry stays heuristic.
  server.drain();
  const PlaceOutcome again = server.place(make_request(2, 2, pool));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.response.cache_state, CacheState::kHit);
  EXPECT_EQ(again.response.solver, SolverKind::kHeuristic);
}

// Client threads hammer one in-process server in two phases. Cold: an
// unscaled mix of in-order and shuffled pools, where every response (miss
// or hit, any interleaving) must be bit-identical to a direct solve. Warm:
// the same pools shuffled and scaled by powers of two, where every request
// must hit the cache. The entry's scale convention depends on which
// request filled it, so the warm phase checks the scale-free bits: the
// objective is direct / scale and every r_i * (t_ij * s) * c_j equals the
// direct solve's. In both phases perm must lay out the canonical
// arrangement the solvers used.
TEST(Server, ConcurrentLoopbackIsBitIdenticalAndHitsTheCache) {
  constexpr std::size_t kShapes[4][2] = {{2, 2}, {2, 3}, {3, 2}, {3, 3}};
  constexpr double kScales[3] = {1.0, 2.0, 0.25};
  Rng seed_rng(27);
  std::vector<std::vector<double>> pools;
  std::vector<OptimalArrangement> direct;
  for (const auto& [p, q] : kShapes) {
    pools.push_back(seed_rng.cycle_times(p * q));
    direct.push_back(solve_optimal_arrangement(p, q, pools.back()));
  }

  // Returns "" when `reply` answers `times` (pool `s` times `scale`) as the
  // phase requires, a diagnostic otherwise: client threads must not throw.
  auto check = [&](std::size_t s, const std::vector<double>& times,
                   double scale, bool warm,
                   const std::vector<std::uint8_t>& reply) -> std::string {
    const Decoded d = decode_payload(reply);
    if (!d.ok() || d.type != MsgType::kResponse)
      return "reply is not a response";
    const PlacementResponse& rsp = d.response;
    const OptimalArrangement& want = direct[s];
    const auto [p, q] = kShapes[s];
    if (rsp.solver != SolverKind::kExact) return "not the exact solver";
    if (rsp.r.size() != p || rsp.c.size() != q || rsp.perm.size() != p * q)
      return "response sizes differ";
    std::vector<bool> used(times.size(), false);
    for (std::size_t k = 0; k < p * q; ++k) {
      const std::uint32_t idx = rsp.perm[k];
      if (idx >= times.size() || used[idx]) return "perm is not a permutation";
      used[idx] = true;
      if (times[idx] != want.grid(k / q, k % q) * scale)
        return "perm does not lay out the canonical arrangement";
    }
    if (!warm)
      return rsp.r == want.solution.alloc.r &&
                     rsp.c == want.solution.alloc.c &&
                     rsp.objective == want.solution.obj2
                 ? ""
                 : "response differs from the direct solve";
    if (rsp.cache_state == CacheState::kMiss) return "warm request missed";
    if (rsp.objective != want.solution.obj2 / scale)
      return "objective is not direct / scale";
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < q; ++j)
        if (rsp.r[i] * (want.grid(i, j) * scale) * rsp.c[j] !=
            want.solution.alloc.r[i] * want.grid(i, j) *
                want.solution.alloc.c[j])
          return "workload products differ from the direct solve";
    return "";
  };

  constexpr unsigned kClients = 4, kRequests = 32;
  MetricsRegistry metrics;
  MetricsRegistry* prev = install_metrics(&metrics);
  std::uint64_t cold_hits = 0, cold_misses = 0;
  {
    PlacementServer server;
    std::vector<std::string> errors(kClients);
    auto run_phase = [&](bool warm) {
      std::vector<std::thread> clients;
      for (unsigned t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          Rng rng(100 + t + (warm ? kClients : 0));
          for (unsigned i = 0; i < kRequests && errors[t].empty(); ++i) {
            const std::size_t s = (t + i) % 4;
            const double scale = warm ? kScales[i % 3] : 1.0;
            std::vector<double> times = pools[s];
            if (warm || i % 2 == 1) rng.shuffle(times);
            for (double& x : times) x *= scale;
            const std::string err =
                check(s, times, scale, warm,
                      server.handle_payload(encode_request(make_request(
                          kShapes[s][0], kShapes[s][1], times))));
            if (!err.empty())
              errors[t] = err + (warm ? " (warm" : " (cold") + ", client " +
                          std::to_string(t) + ", request " +
                          std::to_string(i) + ")";
          }
        });
      }
      for (std::thread& th : clients) th.join();
    };
    run_phase(/*warm=*/false);
    cold_hits = metrics.counter("serve.cache.hits").value();
    cold_misses = metrics.counter("serve.cache.misses").value();
    run_phase(/*warm=*/true);
    server.drain();
    for (const std::string& err : errors) EXPECT_EQ(err, "");
  }
  install_metrics(prev);
  // Upper bound on cold misses: once a thread's own miss-insert completes
  // it can never miss that key again, so each of the 4 threads misses each
  // of the 4 pools at most once (concurrent first encounters may each miss
  // — the lookup/solve/insert sequence is not one atomic step).
  EXPECT_GT(cold_hits, 0u);
  EXPECT_GE(cold_misses, 4u);
  EXPECT_LE(cold_misses, kClients * 4u);
  // Every warm request is one cache lookup, and every one hits.
  EXPECT_EQ(metrics.counter("serve.cache.hits").value() - cold_hits,
            kClients * kRequests);
  EXPECT_EQ(metrics.counter("serve.cache.misses").value(), cold_misses);
}

// ---------------------------------------------------------------------------
// Socket round trips.

TEST(Server, TcpRoundTripMatchesLoopback) {
  Rng rng(28);
  const std::vector<double> pool = rng.cycle_times(4);

  ServerOptions opts;
  opts.threads = 2;
  PlacementServer server(opts);
  std::uint16_t port = 0;
  const int listen_fd = listen_tcp(0, &port);
  ASSERT_GT(port, 0);
  const ServingThread serving(server, listen_fd);

  Endpoint ep;
  ep.port = port;
  const PlacementRequest req = make_request(2, 2, pool);
  const Decoded first = query_server(ep, req);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.type, MsgType::kResponse);
  const OptimalArrangement direct = solve_optimal_arrangement(2, 2, pool);
  EXPECT_EQ(first.response.r, direct.solution.alloc.r);
  EXPECT_EQ(first.response.objective, direct.solution.obj2);
  EXPECT_EQ(first.response.cache_state, CacheState::kMiss);

  // Several requests on one reused connection; the repeat hits the cache.
  const int fd = connect_endpoint(ep);
  const Decoded second = query_fd(fd, req);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.type, MsgType::kResponse);
  EXPECT_EQ(second.response.cache_state, CacheState::kHit);
  EXPECT_EQ(second.response.r, first.response.r);
  const Decoded third = query_fd(fd, make_request(2, 2, {1, 2, 3, 5}));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.type, MsgType::kResponse);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// kStats introspection (appended in-place within protocol version 1).

TEST(Protocol, StatsRequestIsHeaderOnly) {
  const std::vector<std::uint8_t> req = encode_stats_request();
  EXPECT_EQ(req.size(), 8u);  // magic + version + type + reserved, no body
  const Decoded d = decode_payload(req);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.type, MsgType::kStatsRequest);
}

TEST(Protocol, StatsRoundTrip) {
  StatsReply stats;
  stats.cache_entries = 1234567;
  stats.cache_shards = 16;
  stats.drift_events = 3;
  stats.metrics_json = "{\"counters\":{\"serve.requests\":7}}";
  StatsReply::Estimate e;
  e.proc = 11;
  e.op = 2;  // ObsOp::kUpdate
  e.samples = 42;
  e.estimate = 1.0 / 3.0;  // not exactly representable: bitwise transport
  e.units = 96.5;
  stats.estimates.push_back(e);
  e.proc = 12;
  e.op = 0;
  e.samples = 1;
  e.estimate = 2.5;
  e.units = 0.125;
  stats.estimates.push_back(e);

  const Decoded d = decode_payload(encode_stats(stats));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kStatsResponse);
  EXPECT_EQ(d.stats.cache_entries, stats.cache_entries);
  EXPECT_EQ(d.stats.cache_shards, stats.cache_shards);
  EXPECT_EQ(d.stats.drift_events, stats.drift_events);
  EXPECT_EQ(d.stats.metrics_json, stats.metrics_json);
  ASSERT_EQ(d.stats.estimates.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(d.stats.estimates[i].proc, stats.estimates[i].proc);
    EXPECT_EQ(d.stats.estimates[i].op, stats.estimates[i].op);
    EXPECT_EQ(d.stats.estimates[i].samples, stats.estimates[i].samples);
    EXPECT_EQ(d.stats.estimates[i].estimate, stats.estimates[i].estimate);
    EXPECT_EQ(d.stats.estimates[i].units, stats.estimates[i].units);
  }
}

TEST(Protocol, StatsTruncationAndCapViolationsAreFramingErrors) {
  StatsReply stats;
  stats.metrics_json = "{}";
  stats.estimates.resize(2);
  const std::vector<std::uint8_t> good = encode_stats(stats);
  ASSERT_TRUE(decode_payload(good).ok());

  // Any prefix that cuts the body is a framing error, never a crash.
  for (std::size_t len = 8; len < good.size(); ++len)
    EXPECT_EQ(decode_payload(good.data(), len).parse_error,
              WireError::kBadFrame)
        << "prefix " << len;

  // Body layout: cache_entries[8..15] shards[16..19] drift[20..23]
  // metrics_len[24..27]. A declared length over the cap is rejected even
  // if the frame claimed to be long enough.
  std::vector<std::uint8_t> big = good;
  const std::uint32_t huge = kMaxStatsMetricsBytes + 1;
  big[24] = static_cast<std::uint8_t>(huge);
  big[25] = static_cast<std::uint8_t>(huge >> 8);
  big[26] = static_cast<std::uint8_t>(huge >> 16);
  big[27] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_EQ(decode_payload(big).parse_error, WireError::kBadFrame);

  // Estimate-count word right after the 2-byte metrics JSON.
  std::vector<std::uint8_t> many = good;
  const std::size_t count_at = 28 + stats.metrics_json.size();
  const std::uint32_t over = kMaxStatsEstimates + 1;
  many[count_at] = static_cast<std::uint8_t>(over);
  many[count_at + 1] = static_cast<std::uint8_t>(over >> 8);
  many[count_at + 2] = static_cast<std::uint8_t>(over >> 16);
  many[count_at + 3] = static_cast<std::uint8_t>(over >> 24);
  EXPECT_EQ(decode_payload(many).parse_error, WireError::kBadFrame);

  // Oversized inputs are refused at encode time, before they hit the wire.
  StatsReply too_big;
  too_big.metrics_json.assign(kMaxStatsMetricsBytes + 1, 'x');
  EXPECT_THROW(encode_stats(too_big), std::exception);
}

TEST(Server, StatsSnapshotReflectsCacheMetricsAndEstimator) {
  PlacementServer server;

  // No registries installed: the reply is well-formed with empty fields.
  {
    const Decoded d = decode_payload(
        server.handle_payload(encode_stats_request()));
    ASSERT_TRUE(d.ok());
    ASSERT_EQ(d.type, MsgType::kStatsResponse);
    EXPECT_EQ(d.stats.cache_entries, 0u);
    EXPECT_EQ(d.stats.metrics_json, "");
    EXPECT_TRUE(d.stats.estimates.empty());
    EXPECT_EQ(d.stats.drift_events, 0u);
  }

  MetricsRegistry metrics;
  MetricsRegistry* prev_metrics = install_metrics(&metrics);
  RunObservation obs;
  obs.estimator.sample(5, ObsOp::kPanel, 2.0, 3.0, 0);
  obs.estimator.sample(5, ObsOp::kPanel, 2.0, 3.0, 1);
  RunObservation* prev_obs = install_observation(&obs);

  server.place(make_request(2, 2, {1, 2, 3, 6}));  // populate the cache
  const Decoded d =
      decode_payload(server.handle_payload(encode_stats_request()));

  install_observation(prev_obs);
  install_metrics(prev_metrics);

  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kStatsResponse);
  EXPECT_EQ(d.stats.cache_entries, server.cache().size());
  EXPECT_EQ(d.stats.cache_shards, server.cache().shard_count());
  EXPECT_NE(d.stats.metrics_json.find("serve."), std::string::npos);
  ASSERT_EQ(d.stats.estimates.size(), 1u);
  EXPECT_EQ(d.stats.estimates[0].proc, 5u);
  EXPECT_EQ(d.stats.estimates[0].op,
            static_cast<std::uint8_t>(ObsOp::kPanel));
  EXPECT_EQ(d.stats.estimates[0].samples, 2u);
  EXPECT_EQ(d.stats.estimates[0].estimate, 1.5);
  EXPECT_EQ(d.stats.estimates[0].units, 4.0);
  EXPECT_EQ(d.stats.drift_events, 0u);
  EXPECT_EQ(metrics.counter("serve.stats").value(), 1u);
}

TEST(Server, StatsVersionNegotiationStaysTyped) {
  PlacementServer server;
  // A future-version stats request is rejected exactly like any other
  // future-version frame (version word at bytes 4..5).
  std::vector<std::uint8_t> future = encode_stats_request();
  future[4] = 99;
  const Decoded bad_version =
      decode_payload(server.handle_payload(future));
  ASSERT_TRUE(bad_version.ok());
  ASSERT_EQ(bad_version.type, MsgType::kError);
  EXPECT_EQ(bad_version.error.code, WireError::kBadVersion);

  // What a pre-kStats server answers: its decoder never knew type 4, so
  // the client reads kBadType as "no stats support", not a failure.
  std::vector<std::uint8_t> unknown_type = encode_stats_request();
  unknown_type[6] = 42;
  const Decoded bad_type =
      decode_payload(server.handle_payload(unknown_type));
  ASSERT_TRUE(bad_type.ok());
  ASSERT_EQ(bad_type.type, MsgType::kError);
  EXPECT_EQ(bad_type.error.code, WireError::kBadType);
}

TEST(Server, StatsSocketRoundTrip) {
  const std::string path = "test_serve_stats.sock";
  PlacementServer server;
  const ServingThread serving(server, listen_unix(path), path);

  Endpoint ep;
  ep.unix_path = path;
  // Mixed traffic on one connection: placement, then introspection.
  const int fd = connect_endpoint(ep);
  const Decoded placed = query_fd(fd, make_request(2, 2, {1, 2, 3, 6}));
  ASSERT_TRUE(placed.ok());
  ASSERT_EQ(placed.type, MsgType::kResponse);
  const Decoded stats = query_stats_fd(fd);
  ::close(fd);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.type, MsgType::kStatsResponse);
  EXPECT_EQ(stats.stats.cache_entries, 1u);
  EXPECT_EQ(stats.stats.cache_shards, server.cache().shard_count());

  // The one-shot convenience wrapper sees the same snapshot.
  const Decoded again = query_stats(ep);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.type, MsgType::kStatsResponse);
  EXPECT_EQ(again.stats.cache_entries, 1u);
}

TEST(Server, UnixSocketRoundTrip) {
  const std::string path = "test_serve_unix.sock";
  PlacementServer server;
  const ServingThread serving(server, listen_unix(path), path);

  Endpoint ep;
  ep.unix_path = path;
  const Decoded d = query_server(ep, make_request(2, 2, {1, 2, 3, 6}));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d.type, MsgType::kResponse);
  EXPECT_EQ(d.response.solver, SolverKind::kExact);
}

}  // namespace
}  // namespace hetgrid::serve
