// Throughput/latency harness for the placement server (doc/server.md,
// EXPERIMENTS.md section 12): client threads hammer the serial loopback
// front end (handle_payload — the socket paths add only framing) through
// two phases per grid shape:
//
//   cold: every request carries a *fresh* pool, so every request misses
//         the canonicalizing cache and pays a real solve;
//   warm: the same pools return shuffled, so every request is a cache hit
//         answered without touching a solver.
//
// Reported per (shape, phase): qps over the phase wall clock and the
// p50/p95/p99 of the per-request latencies, plus the serve.cache hit/miss
// counter deltas. The mix is partitioned so the counters are exact for
// any client interleaving (no two clients share a cold key), and the
// harness enforces the cache contract: cold misses == requests, warm
// misses == 0, warm hits == requests.
//
// Latencies are wall clock and noisy (CI gates them with a generous
// threshold); the counters are deterministic and gated exactly
// (tools/ci.sh). --smoke shrinks the run to CI size.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hetgrid;
using Clock = std::chrono::steady_clock;

struct Shape {
  std::size_t p, q;
};

std::vector<Shape> parse_shapes(const std::string& csv) {
  std::vector<Shape> out;
  std::string cur;
  for (char c : csv + ",") {
    if (c != ',') {
      cur += c;
      continue;
    }
    if (cur.empty()) continue;
    const std::size_t x = cur.find('x');
    HG_CHECK(x != std::string::npos && x > 0 && x + 1 < cur.size(),
             "--shapes entries look like 2x3, got " << cur);
    out.push_back({static_cast<std::size_t>(std::stoul(cur.substr(0, x))),
                   static_cast<std::size_t>(std::stoul(cur.substr(x + 1)))});
    cur.clear();
  }
  HG_CHECK(!out.empty(), "--shapes must name at least one grid shape");
  return out;
}

/// Sorted-latency percentile: the ceil(q*n)-th smallest sample, in us.
double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

struct PhaseResult {
  double qps = 0.0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  std::uint64_t hits = 0, misses = 0;
};

/// Runs one phase: `clients` threads issue their slice of `payloads`
/// concurrently, per-request latencies are merged, and the cache counter
/// deltas for the phase are returned. Every reply must decode to a
/// kResponse — an error frame fails the bench.
PhaseResult run_phase(serve::PlacementServer& server, MetricsRegistry& metrics,
                      const std::vector<std::vector<std::uint8_t>>& payloads,
                      unsigned clients) {
  const std::uint64_t hits0 = metrics.counter("serve.cache.hits").value();
  const std::uint64_t misses0 = metrics.counter("serve.cache.misses").value();

  std::vector<std::vector<double>> latencies(clients);
  std::vector<bool> failed(clients, false);
  const auto begin = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < payloads.size(); i += clients) {
        const auto t0 = Clock::now();
        const std::vector<std::uint8_t> reply =
            server.handle_payload(payloads[i]);
        const auto t1 = Clock::now();
        latencies[t].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        const serve::Decoded d = serve::decode_payload(reply);
        if (!d.ok() || d.type != serve::MsgType::kResponse) failed[t] = true;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double total_s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  for (unsigned t = 0; t < clients; ++t)
    HG_CHECK(!failed[t], "a bench request was answered with an error frame");

  std::vector<double> merged;
  for (const std::vector<double>& l : latencies)
    merged.insert(merged.end(), l.begin(), l.end());
  std::sort(merged.begin(), merged.end());

  PhaseResult res;
  res.qps = total_s > 0.0 ? static_cast<double>(merged.size()) / total_s : 0.0;
  res.p50_us = percentile(merged, 0.50);
  res.p95_us = percentile(merged, 0.95);
  res.p99_us = percentile(merged, 0.99);
  res.hits = metrics.counter("serve.cache.hits").value() - hits0;
  res.misses = metrics.counter("serve.cache.misses").value() - misses0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetgrid;
  Cli cli(argc, argv,
          {{"shapes", "2x2,2x3,3x3,4x4"}, {"requests", "512"},
           {"clients", "4"}, {"threads", "2"}, {"seed", "42"}, {"smoke", "0"},
           {"csv", "0"}, {"json", "BENCH_server.json"}});
  bench::print_header("Placement server throughput — cold vs warm cache", cli);

  const bool smoke = cli.get_bool("smoke");
  const std::vector<Shape> shapes =
      parse_shapes(smoke ? "2x2,2x3,3x3" : cli.get_string("shapes"));
  const std::size_t requests =
      smoke ? 64 : static_cast<std::size_t>(cli.get_int("requests"));
  const auto clients = static_cast<unsigned>(cli.get_int("clients"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  HG_CHECK(clients >= 1 && requests >= clients,
           "--clients must be >= 1 and --requests >= --clients");

  const std::int64_t threads = cli.get_int("threads");
  HG_CHECK(threads >= 0 && threads <= ThreadPool::kMaxThreads,
           "--threads must be in [0, " << ThreadPool::kMaxThreads
                                       << "], got " << threads);
  serve::ServerOptions opts;
  opts.threads = static_cast<unsigned>(threads);

  Table table;
  table.header({"shape", "phase", "requests", "qps", "p50_us", "p95_us",
                "p99_us", "hits", "misses"});
  bench::JsonReport json("bench_server_throughput", cli);

  MetricsRegistry metrics;
  MetricsRegistry* prev = install_metrics(&metrics);
  for (const Shape& shape : shapes) {
    // One fresh server per shape: cold numbers must not see earlier shapes'
    // entries, and the pool partition below keeps counters exact.
    serve::PlacementServer server(opts);
    Rng rng(seed ^ (shape.p * 131 + shape.q));

    // Cold mix: `requests` distinct pools, one request each.
    std::vector<std::vector<double>> pools;
    std::vector<std::vector<std::uint8_t>> cold;
    pools.reserve(requests);
    cold.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      pools.push_back(rng.cycle_times(shape.p * shape.q));
      serve::PlacementRequest req;
      req.p = static_cast<std::uint16_t>(shape.p);
      req.q = static_cast<std::uint16_t>(shape.q);
      req.times = pools.back();
      cold.push_back(serve::encode_request(req));
    }
    // Warm mix: the same pools, shuffled layouts — all canonical hits.
    std::vector<std::vector<std::uint8_t>> warm;
    warm.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      std::vector<double> times = pools[i];
      rng.shuffle(times);
      serve::PlacementRequest req;
      req.p = static_cast<std::uint16_t>(shape.p);
      req.q = static_cast<std::uint16_t>(shape.q);
      req.times = std::move(times);
      warm.push_back(serve::encode_request(req));
    }

    const std::string shape_name =
        std::to_string(shape.p) + "x" + std::to_string(shape.q);
    const PhaseResult results[2] = {
        run_phase(server, metrics, cold, clients),
        run_phase(server, metrics, warm, clients)};
    server.drain();  // async refinements (heuristic shapes) finish here

    // The cache contract this bench certifies: a cold mix is all misses, a
    // warm mix is all hits.
    HG_INTERNAL_CHECK(results[0].misses == requests && results[0].hits == 0,
                      shape_name << " cold phase was not all misses");
    HG_INTERNAL_CHECK(results[1].hits == requests && results[1].misses == 0,
                      shape_name << " warm phase was not all hits");

    for (int phase = 0; phase < 2; ++phase) {
      const PhaseResult& r = results[phase];
      const char* phase_name = phase == 0 ? "cold" : "warm";
      table.row({shape_name, phase_name,
                 std::to_string(requests), Table::num(r.qps, 0),
                 Table::num(r.p50_us, 1), Table::num(r.p95_us, 1),
                 Table::num(r.p99_us, 1),
                 std::to_string(r.hits), std::to_string(r.misses)});
      json.add()
          .field("shape", shape_name)
          .field("phase", phase_name)
          .field("requests", static_cast<double>(requests))
          .field("clients", static_cast<double>(clients))
          .field("qps", r.qps)
          .field("p50_us", r.p50_us)
          .field("p95_us", r.p95_us)
          .field("p99_us", r.p99_us)
          .field("hits", static_cast<double>(r.hits))
          .field("misses", static_cast<double>(r.misses));
    }
  }
  install_metrics(prev);

  bench::emit(table, cli);
  json.write_file(cli.get_string("json"));
  return 0;
}
