// Topology: owns nodes and links, computes static shortest-delay routes.
//
// Links are added as duplex pairs (or single directions for asymmetric
// setups). compute_routes() runs Dijkstra from every node over propagation
// delay and fills each node's forwarding table; explicit policy routes can be
// layered afterwards (the Abilene experiment pins the "direct" path onto its
// own link to match the paper's measured RTT triangle).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace lsl::flow {
class FluidNetwork;
}  // namespace lsl::flow

namespace lsl::net {

class Topology {
 public:
  /// `seed` drives per-link loss sampling streams.
  Topology(sim::Simulator& simulator, std::uint64_t seed);
  ~Topology();

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  NodeId add_node(std::string name, std::string site = {});

  /// Add a duplex link (two independent unidirectional links) between a and
  /// b. Returns the index of the a->b direction; b->a is index+1.
  std::size_t add_duplex_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Add a single unidirectional link a->b.
  std::size_t add_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Fill every node's forwarding table with shortest-propagation-delay
  /// routes. Must be called after all links are added (may be re-called).
  void compute_routes();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Link& link(std::size_t index) { return *links_[index]; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Directed link from a to b, or nullptr when not adjacent. With parallel
  /// links this is the first one added.
  [[nodiscard]] Link* link_between(NodeId a, NodeId b);

  /// The links a packet from src to dst crosses under the current forwarding
  /// tables, in hop order (empty when src == dst); nullopt when dst is
  /// unreachable or the tables loop.
  [[nodiscard]] std::optional<std::vector<Link*>> routed_path(
      NodeId src, NodeId dst) const;

  /// Look up a node id by name; asserts existence.
  [[nodiscard]] NodeId find(const std::string& name) const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Inject a packet at its source node (entry point used by TCP stacks).
  void send(Packet&& packet);

  /// Storage of every packet queued or in flight on the topology's links.
  [[nodiscard]] const PacketSlab& packets() const { return packets_; }

  // ---- fluid (flow-level) fidelity ------------------------------------
  /// Switch the data plane to the fluid engine: every link (existing and
  /// future) is mirrored as a fluid link, and TCP connections move their
  /// payload onto fluid flows while control segments keep riding packets.
  /// Idempotent; call before traffic starts.
  void enable_fluid();

  /// The fluid engine, or nullptr while running at packet fidelity.
  [[nodiscard]] flow::FluidNetwork* fluid() { return fluid_.get(); }

 private:
  struct Edge {
    NodeId to;
    Link* link;
  };

  sim::Simulator& sim_;
  Rng link_rng_;
  PacketSlab packets_;  ///< declared before links_, so it outlives them
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<Edge>> adjacency_;
  std::unique_ptr<flow::FluidNetwork> fluid_;
};

}  // namespace lsl::net
