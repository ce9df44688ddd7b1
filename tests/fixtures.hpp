// Shared test fixture: the two-host topology used by the TCP and LSL test
// suites. Bulk transfers over it run through exp::run_raw_transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"

namespace lsl::testing {

/// A link receiver for tests: hands each delivered packet to `fn`, which
/// may pass it on by moving from it. Keep it alive while the link runs.
class SinkFn final : public net::PacketSink {
 public:
  explicit SinkFn(std::function<void(net::Packet&)> fn) : fn_(std::move(fn)) {}
  void deliver(net::Packet&& packet) override { fn_(packet); }

 private:
  std::function<void(net::Packet&)> fn_;
};

/// Two hosts joined by one duplex link.
struct TwoNodeNet {
  sim::Simulator sim;
  std::unique_ptr<net::Topology> topo;
  net::NodeId a = 0;
  net::NodeId b = 0;
  std::unique_ptr<tcp::TcpStack> stack_a;
  std::unique_ptr<tcp::TcpStack> stack_b;

  explicit TwoNodeNet(const net::LinkConfig& link, std::uint64_t seed = 42) {
    topo = std::make_unique<net::Topology>(sim, seed);
    a = topo->add_node("a", "site-a");
    b = topo->add_node("b", "site-b");
    topo->add_duplex_link(a, b, link);
    topo->compute_routes();
    stack_a = std::make_unique<tcp::TcpStack>(*topo, a);
    stack_b = std::make_unique<tcp::TcpStack>(*topo, b);
  }
};

}  // namespace lsl::testing
