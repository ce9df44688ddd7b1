#include "net/node.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::net {

void Node::set_route(NodeId dst, Link* out) {
  LSL_ASSERT(out != nullptr && dst != kInvalidNode);
  if (dst >= routes_.size()) {
    routes_.resize(static_cast<std::size_t>(dst) + 1, nullptr);
  }
  routes_[dst] = out;
}

Link* Node::route_for(NodeId dst) const {
  return dst < routes_.size() ? routes_[dst] : nullptr;
}

void Node::deliver(Packet&& packet) {
  if (packet.dst == id_) {
    LSL_ASSERT_MSG(stack_ != nullptr,
                   "packet addressed to node without a protocol stack");
    stack_->receive(std::move(packet));
    return;
  }
  Link* out = route_for(packet.dst);
  if (out == nullptr) {
    LSL_WARN("node %s: no route to node %u, dropping", name_.c_str(),
             packet.dst);
    return;
  }
  ++packets_forwarded_;
  out->enqueue(std::move(packet));
}

}  // namespace lsl::net
