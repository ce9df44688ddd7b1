// A network node: endpoint host or router.
//
// Nodes hold a forwarding table (destination -> outgoing link) filled in by
// the Topology's route computation (or by explicit policy routes). The table
// is a dense vector indexed by destination id: every packet-hop reads it.
// Packets addressed to the node are handed to the registered local delivery
// sink (the TCP stack); everything else is forwarded.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"

namespace lsl::net {

class Node {
 public:
  using LocalDeliverFn = std::function<void(Packet)>;

  Node(NodeId id, std::string name, std::string site)
      : id_(id), name_(std::move(name)), site_(std::move(site)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Site label ("ucsb.edu"): hosts at one site share wide-area connectivity;
  /// the scheduler's edge-equivalence logic leans on this.
  [[nodiscard]] const std::string& site() const { return site_; }

  /// Register the local protocol stack sink.
  void set_local_deliver(LocalDeliverFn sink) { local_ = std::move(sink); }

  /// Point the route for `dst` at `out`. Last write wins.
  void set_route(NodeId dst, Link* out);

  [[nodiscard]] Link* route_for(NodeId dst) const;

  /// Entry point for packets arriving at or originating from this node.
  void handle_packet(Packet packet);

  [[nodiscard]] std::uint64_t packets_forwarded() const {
    return packets_forwarded_;
  }

 private:
  NodeId id_;
  std::string name_;
  std::string site_;
  std::vector<Link*> routes_;  ///< by destination id; nullptr = no route
  LocalDeliverFn local_;
  std::uint64_t packets_forwarded_ = 0;
};

}  // namespace lsl::net
