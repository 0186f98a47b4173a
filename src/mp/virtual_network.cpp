#include "mp/virtual_network.hpp"

#include <algorithm>

namespace hetgrid {

VirtualNetwork::VirtualNetwork(std::size_t processors,
                               const NetworkModel& model, TraceSink* sink)
    : model_(model), send_free_(processors, 0.0),
      recv_free_(processors, 0.0), sink_(sink) {
  model_.validate();
  HG_CHECK(processors > 0, "network needs at least one processor");
}

double VirtualNetwork::transfer(std::size_t src, std::size_t dst,
                                std::size_t blocks, double earliest) {
  HG_CHECK(src < send_free_.size() && dst < send_free_.size(),
           "processor id out of range");
  if (src == dst || blocks == 0) return earliest;

  const double duration =
      model_.latency +
      static_cast<double>(blocks) * model_.block_transfer;

  double start = std::max({earliest, send_free_[src], recv_free_[dst]});
  if (model_.topology == Topology::kEthernet) {
    // One shared medium: the transfer also waits for the bus.
    start = std::max(start, bus_free_);
    bus_free_ = start + duration;
  }
  const double done = start + duration;
  send_free_[src] = done;
  recv_free_[dst] = done;
  ++messages_;
  blocks_sent_ += static_cast<double>(blocks);
  trace_span(sink_, TraceEventKind::kSend, src, start, duration, step_,
             "send", static_cast<double>(blocks), dst);
  trace_span(sink_, TraceEventKind::kRecv, dst, start, duration, step_,
             "recv", static_cast<double>(blocks), src);
  return done;
}

}  // namespace hetgrid
