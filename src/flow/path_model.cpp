#include "flow/path_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lsl::flow {

Bandwidth relay_steady_rate(std::span<const ConnectionParams> hops) {
  LSL_ASSERT(!hops.empty());
  double rate = steady_rate(hops.front()).bits_per_second();
  for (const auto& hop : hops.subspan(1)) {
    rate = std::min(rate, steady_rate(hop).bits_per_second());
  }
  return Bandwidth{rate};
}

SimTime relay_transfer_time(const RelayPathParams& path, std::uint64_t bytes) {
  LSL_ASSERT(!path.hops.empty());
  if (path.hops.size() == 1) {
    return transfer_time(path.hops.front(), bytes);
  }

  // Serial session setup: hop k's handshake begins once the header has
  // reached depot k (one RTT handshake per hop, in sequence, plus half an
  // RTT for the header to cross each established hop).
  SimTime setup = SimTime::zero();
  for (const auto& hop : path.hops) {
    setup += hop.rtt + hop.rtt / 2;
  }

  // Data phase: every hop must individually move all the bytes; hops run
  // concurrently (pipelined), so the slowest hop's data time dominates.
  // Depot buffering bounds an upstream hop's head start, which taking the
  // max already captures.
  SimTime data = SimTime::zero();
  for (const auto& hop : path.hops) {
    data = std::max(data, data_time(hop, bytes));
  }
  return setup + data;
}

}  // namespace lsl::flow
