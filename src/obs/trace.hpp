// Tracing and metrics for the simulator and the message-passing runtime.
//
// Both backends (the bulk-synchronous simulator in src/sim and the
// asynchronous message-passing runtime in src/mp) can emit a timeline of
// typed spans — compute, send/recv, broadcast, phase markers — into a
// TraceSink. The sink is always optional: instrumentation sites take a
// `TraceSink*` that defaults to nullptr, and the emit helpers below reduce
// to a single pointer test on the null path, so untraced runs pay nothing
// measurable.
//
// From a recorded trace, summarize_trace() derives per-processor counters
// (busy/idle time, blocks and messages moved) whose defining invariant is
//   busy + idle == makespan   for every processor,
// with busy the measure of the union of that processor's spans (overlap
// between compute and communication, possible in the async MP model, is
// never double counted). The schema, the counter definitions, and the
// exporters are documented in doc/observability.md.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace hetgrid {

/// Span types. kPhase spans live on the synthetic "machine" lane (see
/// kMachineLane) and mark kernel steps / phases; all others belong to one
/// processor's timeline.
enum class TraceEventKind {
  kComputeBlock,  // block operations executed by one processor
  kSend,          // point-to-point message leaving a processor (MP runtime)
  kRecv,          // point-to-point message arriving at a processor
  kBroadcast,     // participation in a row/column ring broadcast (BSP models)
  kIdle,          // synthesized gap (append_idle_events)
  kPhase,         // step/phase marker on the machine lane
};

/// Stable lower-case name of an event kind ("compute_block", "send", ...);
/// used verbatim in the Chrome-trace "cat" field.
const char* to_string(TraceEventKind kind);

/// `proc` value for events that belong to the whole machine rather than to
/// one processor (phase markers, global charges like pivot-row swaps).
inline constexpr std::size_t kMachineLane =
    std::numeric_limits<std::size_t>::max();

/// `peer` value when a span has no communication partner.
inline constexpr std::size_t kNoPeer = std::numeric_limits<std::size_t>::max();

/// One timeline span, in virtual seconds.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kComputeBlock;
  std::size_t proc = 0;       // flat processor id (grid_row * q + grid_col)
  double start = 0.0;         // virtual seconds from the run's origin
  double duration = 0.0;      // >= 0
  std::size_t step = 0;       // kernel step index k the span belongs to
  double blocks = 0.0;        // r x r blocks moved (send/recv/broadcast)
  std::size_t peer = kNoPeer; // send: destination, recv: source
  std::string name;           // phase label: "panel", "update", "l-bcast"...

  double end() const { return start + duration; }
};

/// Consumer of trace events. Implementations must tolerate events arriving
/// out of start-time order: the async MP runtime discovers timings as its
/// per-processor clocks advance, not globally sorted.
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void record(TraceEvent event) = 0;
};

/// Default sink: appends to an in-memory vector. The simulators are
/// single-threaded, so a plain vector (amortized O(1) push_back, no
/// locking) is "lock-free enough"; a concurrent backend would wrap one
/// sink per worker and merge.
class MemoryTraceSink final : public TraceSink {
 public:
  void record(TraceEvent event) override;

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Per-processor counters derived from a trace.
struct ProcCounters {
  double compute_time = 0.0;  // sum of compute_block durations
  double comm_time = 0.0;     // sum of send/recv/broadcast durations
  /// Measure of the union of the processor's spans: time not idle. In the
  /// BSP models busy == compute + comm exactly (phases never overlap); in
  /// the async MP model compute can overlap communication, so busy may be
  /// less than the sum of the parts.
  double busy_time = 0.0;
  double idle_time = 0.0;     // makespan - busy_time
  double blocks_sent = 0.0;       // from kSend spans
  double blocks_received = 0.0;   // from kRecv and kBroadcast spans
  std::size_t messages_sent = 0;
  std::size_t messages_received = 0;

  double utilization(double makespan) const {
    return makespan > 0.0 ? busy_time / makespan : 0.0;
  }
};

struct TraceSummary {
  /// max(reported makespan, latest span end): the horizon against which
  /// idle time is measured, so busy + idle == makespan holds even if a
  /// trailing relay outlives the last compute.
  double makespan = 0.0;
  std::vector<ProcCounters> procs;
};

/// Aggregates a trace into per-processor counters. Events on kMachineLane,
/// kPhase markers, kIdle spans, and events of processors >= `processors`
/// are ignored. `reported_makespan` is the backend's makespan (SimReport /
/// MpReport); the summary extends it if any span ends later.
TraceSummary summarize_trace(const std::vector<TraceEvent>& events,
                             std::size_t processors,
                             double reported_makespan);

/// Appends one kIdle span per gap in each processor's span union, covering
/// [0, makespan] minus the busy intervals — so the exported Chrome trace
/// shows idle time explicitly instead of as blank space.
void append_idle_events(std::vector<TraceEvent>& events,
                        std::size_t processors, double makespan);

/// Emit helper used by the instrumented backends: one branch when no sink
/// is attached, so the null path compiles down to a pointer test.
inline void trace_span(TraceSink* sink, TraceEventKind kind, std::size_t proc,
                       double start, double duration, std::size_t step,
                       const char* name, double blocks = 0.0,
                       std::size_t peer = kNoPeer) {
  if (sink == nullptr) return;
  sink->record({kind, proc, start, duration, step, blocks, peer, name});
}

}  // namespace hetgrid
