// Event-driven point-to-point network for the message-passing runtime.
//
// Unlike the bulk-synchronous simulator (src/sim), which charges whole
// broadcast phases, this network times every individual message: each
// processor's sends are serialized (the paper's Section 2.2 assumption),
// each receiver is busy for the transfer duration, and on Ethernet all
// transfers additionally contend for one shared bus. Delivery times emerge
// from the contention, so ring pipelines fill and drain realistically.
#pragma once

#include <cstddef>
#include <vector>

#include "core/machine.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace hetgrid {

class VirtualNetwork {
 public:
  VirtualNetwork(std::size_t processors, const NetworkModel& model,
                 TraceSink* sink = nullptr);

  /// Tags subsequently timed transfers with the kernel step for the
  /// trace (purely observational).
  void set_step(std::size_t step) { step_ = step; }

  /// Times one message of `blocks` r x r blocks from `src` to `dst`, not
  /// starting before `earliest` (data readiness at the sender). Returns
  /// the delivery time at the receiver. Self-sends are free and return
  /// `earliest`.
  double transfer(std::size_t src, std::size_t dst, std::size_t blocks,
                  double earliest);

  /// Earliest instant `proc` can start a new send.
  double send_free(std::size_t proc) const;
  /// Earliest instant `proc` can start receiving.
  double recv_free(std::size_t proc) const;

  std::size_t messages_sent() const { return messages_; }
  double bytes_blocks_sent() const { return blocks_sent_; }

 private:
  NetworkModel model_;
  std::vector<double> send_free_;
  std::vector<double> recv_free_;
  double bus_free_ = 0.0;  // Ethernet shared medium
  TraceSink* sink_ = nullptr;
  std::size_t step_ = 0;
  std::size_t messages_ = 0;
  double blocks_sent_ = 0.0;
};

}  // namespace hetgrid
