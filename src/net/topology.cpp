#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "flow/fluid.hpp"
#include "util/assert.hpp"

namespace lsl::net {

namespace {

const sim::Tag kLoopbackTag{"net.loopback", sim::Layer::kNet};

}  // namespace

Topology::Topology(sim::Simulator& simulator, std::uint64_t seed)
    : sim_(simulator), link_rng_(seed) {}

Topology::~Topology() = default;

NodeId Topology::add_node(std::string name, std::string site) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, std::move(name), std::move(site)));
  adjacency_.emplace_back();
  return id;
}

std::size_t Topology::add_link(NodeId a, NodeId b, const LinkConfig& config) {
  LSL_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b);
  const std::size_t index = links_.size();
  links_.push_back(std::make_unique<Link>(sim_, packets_, config,
                                          link_rng_.fork(index + 1)));
  Link* link = links_.back().get();
  link->set_receiver(nodes_[b].get());
  adjacency_[a].push_back(Edge{b, link});
  if (fluid_ != nullptr) {
    const auto fid =
        fluid_->add_link(link->fluid_capacity_bps(), config.loss_rate);
    link->bind_fluid(fluid_.get(), fid);
  }
  return index;
}

std::size_t Topology::add_duplex_link(NodeId a, NodeId b,
                                      const LinkConfig& config) {
  const std::size_t forward = add_link(a, b, config);
  add_link(b, a, config);
  return forward;
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  for (NodeId source = 0; source < n; ++source) {
    // Dijkstra over propagation delay from `source`.
    std::vector<std::int64_t> dist(n, std::numeric_limits<std::int64_t>::max());
    std::vector<Link*> first_hop(n, nullptr);
    using Item = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source] = 0;
    heap.emplace(0, source);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) {
        continue;
      }
      for (const Edge& e : adjacency_[u]) {
        const std::int64_t nd = d + e.link->config().propagation_delay.ns();
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          first_hop[e.to] = (u == source) ? e.link : first_hop[u];
          heap.emplace(nd, e.to);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != source && first_hop[dst] != nullptr) {
        nodes_[source]->set_route(dst, first_hop[dst]);
      }
    }
  }
  // Intermediate nodes also need routes, which the per-source pass above
  // already provides because it runs from every node.
}

Node& Topology::node(NodeId id) {
  LSL_ASSERT(id < nodes_.size());
  return *nodes_[id];
}

const Node& Topology::node(NodeId id) const {
  LSL_ASSERT(id < nodes_.size());
  return *nodes_[id];
}

Link* Topology::link_between(NodeId a, NodeId b) {
  LSL_ASSERT(a < nodes_.size() && b < nodes_.size());
  for (const Edge& e : adjacency_[a]) {
    if (e.to == b) {
      return e.link;
    }
  }
  return nullptr;
}

NodeId Topology::find(const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node->name() == name) {
      return node->id();
    }
  }
  LSL_ASSERT_MSG(false, "node name not found");
  return kInvalidNode;
}

void Topology::enable_fluid() {
  if (fluid_ != nullptr) {
    return;
  }
  fluid_ = std::make_unique<flow::FluidNetwork>(sim_);
  for (const auto& link : links_) {
    const auto fid = fluid_->add_link(link->fluid_capacity_bps(),
                                      link->config().loss_rate);
    link->bind_fluid(fluid_.get(), fid);
  }
}

std::optional<std::vector<Link*>> Topology::routed_path(NodeId src,
                                                        NodeId dst) const {
  LSL_ASSERT(src < nodes_.size() && dst < nodes_.size());
  std::vector<Link*> path;
  for (NodeId cur = src; cur != dst;) {
    Link* out = nodes_[cur]->route_for(dst);
    if (out == nullptr || path.size() >= nodes_.size()) {
      return std::nullopt;  // no route, or a routing loop
    }
    // The next node is the neighbour this very link reaches: parallel links
    // to one neighbour are told apart by identity, not by endpoint.
    const auto edge = std::ranges::find(adjacency_[cur], out, &Edge::link);
    if (edge == adjacency_[cur].end()) {
      return std::nullopt;  // route through a link that leaves another node
    }
    path.push_back(out);
    cur = edge->to;
  }
  return path;
}

void Topology::send(Packet&& packet) {
  LSL_ASSERT(packet.src < nodes_.size() && packet.dst < nodes_.size());
  if (packet.dst == packet.src) {
    // Loopback: deliver through the event loop, never synchronously --
    // otherwise a self-connection's whole handshake would complete inside
    // the caller's connect() before it can install callbacks.
    Node* node = nodes_[packet.src].get();
    sim_.schedule_after(
        SimTime::zero(),
        [node, p = std::move(packet)]() mutable {
          node->deliver(std::move(p));
        },
        kLoopbackTag);
    return;
  }
  nodes_[packet.src]->deliver(std::move(packet));
}

}  // namespace lsl::net
