// A network node: endpoint host or router.
//
// Nodes hold a forwarding table (destination -> outgoing link) filled in by
// the Topology's route computation (or by explicit policy routes). The table
// is a dense vector indexed by destination id: every packet-hop reads it.
// Packets addressed to the node are handed to its protocol stack (the TCP
// stack); everything else is forwarded. A node is the PacketSink its
// incoming links deliver to, so each hop is one call, and a packet keeps
// moving by rvalue reference from link to node to stack.
#pragma once

#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"

namespace lsl::net {

/// The protocol stack attached to a node (tcp::TcpStack): the node hands it
/// every packet addressed to the node. The fluid data plane also reads a
/// peer node's stack to rendezvous with the remote endpoint object without
/// routing a packet.
class ProtocolStack {
 public:
  virtual ~ProtocolStack() = default;
  ProtocolStack(const ProtocolStack&) = delete;
  ProtocolStack& operator=(const ProtocolStack&) = delete;

  /// A packet addressed to this node arrived.
  virtual void receive(Packet&& packet) = 0;

 protected:
  ProtocolStack() = default;
};

class Node final : public PacketSink {
 public:
  Node(NodeId id, std::string name, std::string site)
      : id_(id), name_(std::move(name)), site_(std::move(site)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Site label ("ucsb.edu"): hosts at one site share wide-area connectivity;
  /// the scheduler's edge-equivalence logic leans on this.
  [[nodiscard]] const std::string& site() const { return site_; }

  /// Attach the protocol stack that receives this node's packets.
  void set_stack(ProtocolStack* stack) { stack_ = stack; }
  [[nodiscard]] ProtocolStack* stack() const { return stack_; }

  /// Point the route for `dst` at `out`. Last write wins.
  void set_route(NodeId dst, Link* out);

  [[nodiscard]] Link* route_for(NodeId dst) const;

  /// Entry point for packets arriving at or originating from this node.
  void deliver(Packet&& packet) override;

  [[nodiscard]] std::uint64_t packets_forwarded() const {
    return packets_forwarded_;
  }

 private:
  NodeId id_;
  std::string name_;
  std::string site_;
  std::vector<Link*> routes_;  ///< by destination id; nullptr = no route
  ProtocolStack* stack_ = nullptr;
  std::uint64_t packets_forwarded_ = 0;
};

}  // namespace lsl::net
