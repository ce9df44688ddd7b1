// Raw TCP bulk-transfer driver (no LSL layer): used for baselines such as
// PSockets-style parallel sockets, for SACK on/off ablations and by the TCP
// test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::exp {

struct RawTransferResult {
  bool completed = false;
  std::uint64_t bytes_delivered = 0;
  SimTime elapsed = SimTime::zero();
  Bandwidth goodput;
  tcp::ConnectionStats sender_stats;  ///< the first stream's sender
};

/// Drives a bulk transfer of `bytes` from `src` to sinks listening on `dst`
/// over `streams` parallel TCP connections (PSockets-style striping: each
/// carries bytes/streams, the last one the remainder) on ports base_port,
/// base_port + 1, ..., running the simulation until every stripe's receiver
/// sees EOF or `deadline` passes.
RawTransferResult run_raw_transfer(sim::Simulator& sim, tcp::TcpStack& src,
                                   tcp::TcpStack& dst, std::uint64_t bytes,
                                   const tcp::TcpOptions& options,
                                   std::size_t streams = 1,
                                   SimTime deadline = SimTime::seconds(3600),
                                   net::Port base_port = 5001);

}  // namespace lsl::exp
