#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/arrangement.hpp"
#include "core/cycle_time_grid.hpp"
#include "core/exact_solver.hpp"
#include "core/heuristic.hpp"
#include "obs/imbalance.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace hetgrid::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How often blocked accept/recv loops wake up to check the stop flag.
constexpr int kPollMs = 100;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Recovers, for each grid slot of the solver's arrangement, the index of
/// the pool entry placed there. The solver's grid values are exactly a
/// rearrangement of the sorted pool (no arithmetic touches them), so
/// bitwise matching is sound; duplicates are consumed in ascending pool
/// order for determinism.
std::vector<std::uint32_t> arrangement_indices(
    const CycleTimeGrid& grid, const std::vector<double>& sorted_pool) {
  const std::size_t n = sorted_pool.size();
  std::vector<bool> used(n, false);
  std::vector<std::uint32_t> out(n);
  const std::vector<double>& values = grid.row_major();
  HG_INTERNAL_CHECK(values.size() == n, "arrangement size mismatch");
  for (std::size_t slot = 0; slot < n; ++slot) {
    std::size_t k = static_cast<std::size_t>(
        std::lower_bound(sorted_pool.begin(), sorted_pool.end(),
                         values[slot]) -
        sorted_pool.begin());
    while (k < n && (used[k] || sorted_pool[k] != values[slot])) ++k;
    HG_INTERNAL_CHECK(k < n && sorted_pool[k] == values[slot],
                      "solver arrangement is not a rearrangement of the pool");
    used[k] = true;
    out[slot] = static_cast<std::uint32_t>(k);
  }
  return out;
}

/// Maps a cached (canonical-coordinates) solution back into the request's
/// layout. `ratio` == 1.0 exactly when the request's scale bit-matches the
/// entry's (x/x is exact in IEEE), and division by 1.0 is the identity, so
/// same-scale hits reproduce the stored shares bit for bit.
PlacementResponse response_from_entry(const CachedSolution& entry,
                                      const CanonicalPlacement& canonical,
                                      CacheState state) {
  const double ratio = canonical.scale / entry.scale;
  PlacementResponse rsp;
  rsp.p = static_cast<std::uint16_t>(entry.p);
  rsp.q = static_cast<std::uint16_t>(entry.q);
  rsp.solver = entry.exact ? SolverKind::kExact : SolverKind::kHeuristic;
  rsp.cache_state = state;
  rsp.objective = entry.obj2 / ratio;
  rsp.r.resize(entry.p);
  for (std::size_t i = 0; i < entry.p; ++i) rsp.r[i] = entry.r[i] / ratio;
  rsp.c = entry.c;
  rsp.perm.resize(entry.arrangement.size());
  for (std::size_t slot = 0; slot < entry.arrangement.size(); ++slot)
    rsp.perm[slot] = canonical.sorted_to_request[entry.arrangement[slot]];
  return rsp;
}

PlaceOutcome error_outcome(WireError code, std::string detail) {
  PlaceOutcome out;
  out.ok = false;
  out.error = {code, std::move(detail)};
  metric_count("serve.errors");
  return out;
}

}  // namespace

PlacementServer::PlacementServer(ServerOptions opts)
    : opts_(opts),
      cache_(opts.cache_shards),
      pool_(ThreadPool::resolve_threads(opts.threads)) {}

PlacementServer::~PlacementServer() { shutdown(); }

PlaceOutcome PlacementServer::place(const PlacementRequest& req) {
  return place_admitted(req, Clock::now());
}

PlaceOutcome PlacementServer::place_admitted(const PlacementRequest& req,
                                             Clock::time_point admitted) {
  ProfScope span("serve.place");
  metric_count("serve.requests");
  const auto started = Clock::now();

  if (stop_.load(std::memory_order_acquire))
    return error_outcome(WireError::kShutdown, "server is draining");
  const std::size_t n =
      static_cast<std::size_t>(req.p) * static_cast<std::size_t>(req.q);
  if (req.p == 0 || req.q == 0 || req.p > kMaxGridSide ||
      req.q > kMaxGridSide || req.times.size() != n)
    return error_outcome(WireError::kBadDimensions,
                         "times size must equal p*q, sides in [1, 128]");
  if (const std::string err = cycle_time_error(req.times); !err.empty())
    return error_outcome(WireError::kBadCycleTime, err);
  if (req.mode > Mode::kHeuristic)
    return error_outcome(WireError::kBadMode, "unknown mode");
  // The only wall-clock decision: expire requests that waited in a queue
  // past their own deadline. Solver choice below is deadline-*value*
  // driven and stays deterministic.
  if (req.deadline_us > 0 &&
      elapsed_us(admitted) > static_cast<double>(req.deadline_us))
    return error_outcome(WireError::kDeadlineExceeded,
                         "request expired before solving");

  const CanonicalPlacement canonical =
      canonicalize_placement(req.p, req.q, req.times);

  PlaceOutcome out;
  if (std::optional<CachedSolution> entry = cache_.lookup(canonical)) {
    out.ok = true;
    out.response = response_from_entry(
        *entry, canonical,
        entry->upgraded ? CacheState::kHitUpgraded : CacheState::kHit);
  } else {
    out = solve_miss(req, canonical);
  }
  metric_record("serve.latency_us", elapsed_us(started));
  return out;
}

PlaceOutcome PlacementServer::solve_miss(const PlacementRequest& req,
                                         const CanonicalPlacement& canonical) {
  const bool affordable = exact_affordable(req.p, req.q);
  bool use_exact = false;
  switch (req.mode) {
    case Mode::kExact:
      if (!affordable)
        return error_outcome(
            WireError::kTooCostly,
            "exact solve over budget; use mode=auto or heuristic");
      use_exact = true;
      break;
    case Mode::kHeuristic:
      use_exact = false;
      break;
    case Mode::kAuto:
      use_exact = affordable &&
                  (req.deadline_us == 0 ||
                   req.deadline_us >= kExactDeadlineFloorUs);
      break;
  }

  CachedSolution sol;
  sol.p = req.p;
  sol.q = req.q;
  sol.unit = canonical.unit;
  sol.scale = canonical.scale;
  try {
    if (use_exact) {
      ProfScope span("serve.solve.exact");
      const OptimalArrangement opt =
          solve_optimal_arrangement(req.p, req.q, canonical.sorted);
      sol.exact = true;
      sol.obj2 = opt.solution.obj2;
      sol.r = opt.solution.alloc.r;
      sol.c = opt.solution.alloc.c;
      sol.arrangement = arrangement_indices(opt.grid, canonical.sorted);
      metric_count("serve.solved.exact");
    } else {
      ProfScope span("serve.solve.heuristic");
      const HeuristicResult res =
          solve_heuristic(req.p, req.q, canonical.sorted);
      sol.exact = false;
      sol.obj2 = res.final().obj2;
      sol.r = res.final().alloc.r;
      sol.c = res.final().alloc.c;
      sol.arrangement = arrangement_indices(res.final().grid, canonical.sorted);
      metric_count("serve.solved.heuristic");
    }
  } catch (const std::exception& e) {
    return error_outcome(WireError::kInternal, e.what());
  }

  // Build the response from the fresh solution (scale ratio is exactly
  // 1.0: the entry was solved on this very request's pool), then publish
  // it. If a concurrent request for the same key solved first, the cache
  // keeps the better entry — both racers solved identical inputs, so the
  // served bits are identical either way.
  PlaceOutcome out;
  out.ok = true;
  out.response = response_from_entry(sol, canonical, CacheState::kMiss);
  const bool served_heuristic = !sol.exact;
  cache_.insert_or_upgrade(std::move(sol));
  if (served_heuristic && opts_.async_refine && affordable &&
      !stop_.load(std::memory_order_acquire))
    queue_refinement(canonical);
  return out;
}

void PlacementServer::queue_refinement(const CanonicalPlacement& canonical) {
  metric_count("serve.refines");
  pool_.submit([this, canonical]() {
    if (stop_.load(std::memory_order_acquire)) return;
    if (std::optional<CachedSolution> entry = cache_.lookup(canonical);
        entry && entry->exact)
      return;  // a sibling refinement or exact request got there first
    ProfScope span("serve.refine");
    try {
      const OptimalArrangement opt = solve_optimal_arrangement(
          canonical.p, canonical.q, canonical.sorted);
      CachedSolution sol;
      sol.p = canonical.p;
      sol.q = canonical.q;
      sol.unit = canonical.unit;
      sol.scale = canonical.scale;
      sol.exact = true;
      sol.obj2 = opt.solution.obj2;
      sol.r = opt.solution.alloc.r;
      sol.c = opt.solution.alloc.c;
      sol.arrangement = arrangement_indices(opt.grid, canonical.sorted);
      cache_.insert_or_upgrade(std::move(sol));
    } catch (const std::exception&) {
      // Refinement is best-effort: the heuristic entry stays authoritative.
      metric_count("serve.refine_failures");
    }
  });
}

std::vector<std::uint8_t> PlacementServer::process_payload(
    const std::vector<std::uint8_t>& payload, Clock::time_point admitted) {
  const Decoded decoded = decode_payload(payload);
  if (!decoded.ok()) {
    metric_count("serve.errors");
    return encode_error(decoded.parse_error,
                        wire_error_name(decoded.parse_error));
  }
  if (decoded.type == MsgType::kStatsRequest) {
    metric_count("serve.stats");
    return encode_stats(stats());
  }
  if (decoded.type != MsgType::kRequest) {
    metric_count("serve.errors");
    return encode_error(WireError::kBadType, "server accepts only requests");
  }
  const PlaceOutcome outcome = place_admitted(decoded.request, admitted);
  return outcome.ok ? encode_response(outcome.response)
                    : encode_error(outcome.error.code, outcome.error.detail);
}

StatsReply PlacementServer::stats() const {
  StatsReply out;
  out.cache_entries = cache_.size();
  out.cache_shards = static_cast<std::uint32_t>(cache_.shard_count());
  if (const MetricsRegistry* m = installed_metrics()) {
    out.metrics_json = m->snapshot_json();
    if (out.metrics_json.size() > kMaxStatsMetricsBytes)
      out.metrics_json.resize(kMaxStatsMetricsBytes);
  }
  if (const RunObservation* obs = installed_observation()) {
    out.drift_events =
        static_cast<std::uint32_t>(obs->estimator.drift_events().size());
    for (const CycleEstimate& e : obs->estimator.estimates()) {
      if (out.estimates.size() >= kMaxStatsEstimates) break;
      StatsReply::Estimate wire;
      wire.proc = static_cast<std::uint32_t>(e.proc);
      wire.op = static_cast<std::uint8_t>(e.op);
      wire.samples = e.samples;
      wire.estimate = e.seconds_per_unit;
      wire.units = e.units;
      out.estimates.push_back(wire);
    }
  }
  return out;
}

std::vector<std::uint8_t> PlacementServer::handle_payload(
    const std::vector<std::uint8_t>& payload) {
  return process_payload(payload, Clock::now());
}

void PlacementServer::serve_connection(int fd) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    // Park in poll() so the stop flag is honored even when the peer is
    // idle; a blocking read would pin the worker past shutdown.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (stop_.load(std::memory_order_acquire)) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    try {
      if (!read_frame(fd, payload)) break;  // clean EOF
      write_frame(fd, process_payload(payload, Clock::now()));
    } catch (const std::exception&) {
      metric_count("serve.connection_errors");
      break;
    }
  }
  ::close(fd);
  metric_count("serve.connections_closed");
}

void PlacementServer::serve_fd(int listen_fd) {
  HG_CHECK(listen_fd >= 0, "serve_fd needs a valid listening socket");
  listen_fd_.store(listen_fd, std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed by shutdown()
    }
    metric_count("serve.connections");
    pool_.submit([this, conn]() { serve_connection(conn); });
  }
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void PlacementServer::shutdown() {
  stop_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  pool_.wait_idle();
}

void PlacementServer::drain() { pool_.wait_idle(); }

int listen_tcp(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HG_CHECK(false, "cannot listen on 127.0.0.1:" << port << ": "
                                                  << std::strerror(err));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    HG_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
             "getsockname failed: " << std::strerror(errno));
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  HG_CHECK(path.size() < sizeof addr.sun_path,
           "unix socket path too long: " << path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HG_CHECK(false,
             "cannot listen on " << path << ": " << std::strerror(err));
  }
  return fd;
}

}  // namespace hetgrid::serve
