// The placement server: allocation-as-a-service over the paper's solvers.
//
// A PlacementServer answers PlacementRequests — "place my job on this
// p x q grid of cycle-times" — through a canonicalizing solution cache
// (serve/solution_cache.hpp). The solve path is:
//
//   request -> validate -> canonicalize -> cache lookup
//     hit:  rescale/re-permute the stored solution to the request's layout
//     miss: solve (exact or heuristic per mode/deadline), store, respond
//
// Degrade-then-refine: when the deadline or the exact-cost budget rules
// the exact solver out, the request is answered from the SVD heuristic
// immediately and — when affordable — an *async exact refinement* task is
// queued on the shared thread pool; it upgrades the cache entry in the
// background, so later equivalent requests are served the optimum
// (cache_state = kHitUpgraded). An upgrade never lowers the served
// objective (SolutionCache's monotone guarantee).
//
// Determinism contract: the solver decision is a pure function of
// (p, q, mode, deadline_us) — never of elapsed wall time — and a cold
// request is solved on the canonically sorted pool, which the solvers
// sort anyway, so a response is bit-identical to a direct
// solve_optimal_arrangement / solve_heuristic call with the same times,
// for any server thread count and any client concurrency
// (tests/test_serve.cpp, Server.ConcurrentLoopback*). The only wall-clock
// input is the optional per-request expiry check (deadline_us > 0), which
// can produce a kDeadlineExceeded error but never a different solution.
//
// Front ends, thinnest first:
//   * handle_payload(): the serial loopback — one encoded payload in, one
//     encoded payload out, no sockets anywhere (tests, benches);
//   * serve_fd(): a blocking accept loop on a listening TCP/unix socket;
//     each connection becomes a pool task streaming length-prefixed
//     frames (tools/hetgrid_cli.cpp `hetgrid serve`).
//
// Observability: obs/metrics counters ("serve.requests", "serve.errors",
// "serve.solved.exact", "serve.solved.heuristic", "serve.refines",
// "serve.cache.{hits,misses,inserts,upgrades}"), a wall-clock
// "serve.latency_us" histogram (p50/p95/p99 via Histogram::quantile), and
// obs/profiler spans around every solve. Counters are deterministic for a
// fixed request sequence; the latency histogram is wall-clock by nature
// and excluded from byte-stability claims (doc/server.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/solution_cache.hpp"
#include "util/thread_pool.hpp"

namespace hetgrid::serve {

/// Auto-mode deadline gate: a request with 0 < deadline_us < this floor
/// is served from the heuristic even when the exact solver is affordable
/// (exact_affordable in core/exact_solver.hpp, the same rule as `hetgrid
/// solve --solver=auto`); it gets refined asynchronously instead.
inline constexpr std::uint64_t kExactDeadlineFloorUs = 20'000;

struct ServerOptions {
  /// Worker threads shared by socket connections and async refinement
  /// (0 = all hardware threads, at most ThreadPool::kMaxThreads).
  unsigned threads = 1;
  /// Power-of-two shard count for the solution cache, at most
  /// SolutionCache::kMaxShards.
  std::size_t cache_shards = 16;
  /// Queue an exact refinement whenever a request was answered from the
  /// heuristic and the exact solver is affordable.
  bool async_refine = true;
};

/// Outcome of one placement: either a response or a typed error.
struct PlaceOutcome {
  bool ok = false;
  PlacementResponse response;  // valid when ok
  ErrorMessage error;          // valid when !ok
};

class PlacementServer {
 public:
  explicit PlacementServer(ServerOptions opts = {});
  /// Graceful shutdown: stops accepting, lets in-flight requests and
  /// refinements finish, joins the pool.
  ~PlacementServer();

  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  /// Typed API: validate, consult the cache, solve on a miss. Thread-safe;
  /// runs on the calling thread (the loopback clients of the smoke test
  /// call this concurrently).
  PlaceOutcome place(const PlacementRequest& req);

  /// Serial loopback: one request payload in (protocol.hpp encoding, no
  /// length prefix), one response/error payload out. Never throws on bad
  /// bytes — malformed input comes back as an error frame.
  std::vector<std::uint8_t> handle_payload(
      const std::vector<std::uint8_t>& payload);

  /// Accept loop on a listening socket fd (see listen_tcp / listen_unix).
  /// Blocks until shutdown(); each accepted connection is served as a pool
  /// task that answers frames until the peer closes. Takes ownership of
  /// `listen_fd`.
  void serve_fd(int listen_fd);

  /// Initiates graceful shutdown: serve_fd() returns, open connections
  /// are answered a final kShutdown error on their next request, queued
  /// work (including refinements) drains. Idempotent, thread-safe.
  void shutdown();

  /// Blocks until every queued pool task (connections, async
  /// refinements) has finished — how tests await refinement.
  void drain();

  /// Introspection snapshot served to kStatsRequest frames: cache
  /// occupancy, the installed metrics registry's JSON snapshot (truncated
  /// to kMaxStatsMetricsBytes), and the installed observation's estimator
  /// lanes + drift count. Fields for absent registries/observations are
  /// empty, never an error.
  StatsReply stats() const;

  const SolutionCache& cache() const { return cache_; }
  const ServerOptions& options() const { return opts_; }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

 private:
  PlaceOutcome place_admitted(const PlacementRequest& req,
                              std::chrono::steady_clock::time_point admitted);
  std::vector<std::uint8_t> process_payload(
      const std::vector<std::uint8_t>& payload,
      std::chrono::steady_clock::time_point admitted);
  PlaceOutcome solve_miss(const PlacementRequest& req,
                          const CanonicalPlacement& canonical);
  void queue_refinement(const CanonicalPlacement& canonical);
  void serve_connection(int fd);

  ServerOptions opts_;
  SolutionCache cache_;
  std::atomic<bool> stop_{false};
  std::atomic<int> listen_fd_{-1};
  // Last member: destroyed first, so workers (which touch cache_ and
  // stop_) are joined while the rest of the server is still alive.
  ThreadPool pool_;
};

/// Creates a listening TCP socket bound to 127.0.0.1:`port` (0 picks a
/// free port, reported through `bound_port`). Throws PreconditionError on
/// failure.
int listen_tcp(std::uint16_t port, std::uint16_t* bound_port = nullptr);

/// Creates a listening unix-domain socket at `path` (an existing socket
/// file is replaced). Throws PreconditionError on failure.
int listen_unix(const std::string& path);

}  // namespace hetgrid::serve
