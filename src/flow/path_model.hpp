// Pipelined multi-hop relay transfer model.
//
// A logistical path is a series of TCP connections joined by depots. Once
// the pipeline is primed, the end-to-end rate is the minimum hop rate (the
// paper's minimax rationale); the costs a relay adds are the serial session
// setup (each hop's handshake starts only after the header reaches it) and
// each hop's own slow-start ramp, which overlap pipeline-fashion.
#pragma once

#include <cstdint>
#include <span>

#include "flow/tcp_model.hpp"

namespace lsl::flow {

struct RelayPathParams {
  std::span<const ConnectionParams> hops;
};

/// End-to-end time to move `bytes` from source through every hop to the
/// sink, including serial session setup.
[[nodiscard]] SimTime relay_transfer_time(const RelayPathParams& path,
                                          std::uint64_t bytes);

/// The pipeline's steady end-to-end rate: min over hops.
[[nodiscard]] Bandwidth relay_steady_rate(std::span<const ConnectionParams> hops);

}  // namespace lsl::flow
