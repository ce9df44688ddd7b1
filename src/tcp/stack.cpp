#include "tcp/stack.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::tcp {

TcpStack::TcpStack(net::Topology& topology, net::NodeId node)
    : topology_(topology), node_(node) {
  topology_.node(node).set_stack(this);
}

TcpStack::~TcpStack() {
  for (auto& [key, conn] : conns_) {
    conn->release_callbacks();
  }
}

void TcpStack::listen(net::Port port, AcceptFn on_accept, TcpOptions options) {
  LSL_ASSERT_MSG(!listeners_.contains(port), "port already listening");
  listeners_.emplace(port, Listener{std::move(on_accept), options});
}

void TcpStack::stop_listening(net::Port port) { listeners_.erase(port); }

TcpStack::ConnTable::iterator TcpStack::lower_bound(const ConnKey& key) {
  return std::lower_bound(
      conns_.begin(), conns_.end(), key,
      [](const auto& entry, const ConnKey& k) { return entry.first < k; });
}

void TcpStack::add(const ConnKey& key, Connection::Ptr conn) {
  // Like std::map::emplace, an existing entry wins.
  const auto it = lower_bound(key);
  if (it == conns_.end() || it->first != key) {
    conns_.emplace(it, key, std::move(conn));
  }
}

Connection::Ptr TcpStack::connect(net::NodeId dst, net::Port dst_port,
                                  TcpOptions options) {
  // Find an ephemeral port free for this (dst, dst_port) pair.
  net::Port port = next_ephemeral_;
  for (int attempts = 0; attempts < 16384; ++attempts) {
    if (find_connection(ConnKey{dst, port, dst_port}) == nullptr) {
      break;
    }
    port = (port >= 65535) ? net::Port{49152} : static_cast<net::Port>(port + 1);
  }
  next_ephemeral_ =
      (port >= 65535) ? net::Port{49152} : static_cast<net::Port>(port + 1);

  auto conn = Connection::Ptr(
      new Connection(*this, node_, dst, port, dst_port, options));
  add(ConnKey{dst, port, dst_port}, conn);
  conn->start_active_open();
  return conn;
}

void TcpStack::receive(net::Packet&& packet) {
  const ConnKey key{packet.src, packet.tcp.dst_port, packet.tcp.src_port};
  // A local ref: handle_packet may trigger reap of this connection, and a
  // connect() from one of its callbacks may grow the table.
  if (const Connection::Ptr conn = find_connection(key)) {
    conn->handle_packet(packet);
    return;
  }
  if (packet.tcp.has(net::kFlagSyn) && !packet.tcp.has(net::kFlagAck)) {
    if (const auto lit = listeners_.find(packet.tcp.dst_port);
        lit != listeners_.end()) {
      auto conn = Connection::Ptr(
          new Connection(*this, node_, packet.src, packet.tcp.dst_port,
                         packet.tcp.src_port, lit->second.options));
      add(key, conn);
      conn->start_passive_open();
      conn->handle_packet(packet);
      return;
    }
  }
  if (!packet.tcp.has(net::kFlagRst) && !packet.tcp.has(net::kFlagSyn)) {
    // A non-SYN segment for a connection we no longer track: answer with a
    // RST so the sender learns its peer is gone (a LAST_ACK endpoint whose
    // final ACK was lost would otherwise retransmit its FIN until the
    // give-up limit -- the peer left TIME_WAIT long ago and only this
    // reset can release it promptly). Bare SYNs still time out through
    // kMaxSynRetries: connection-refused semantics are exercised by the
    // recovery tests and stay unchanged.
    net::Packet rst;
    rst.src = node_;
    rst.dst = packet.src;
    rst.tcp.src_port = packet.tcp.dst_port;
    rst.tcp.dst_port = packet.tcp.src_port;
    rst.tcp.seq = packet.tcp.ack;
    rst.tcp.flags = net::kFlagRst;
    emit(std::move(rst));
    return;
  }
  LSL_TRACE("tcp node %u: dropping stray segment on port %u", node_,
            packet.tcp.dst_port);
}

void TcpStack::deliver_accept(const ConnKey& key) {
  const Connection::Ptr conn = find_connection(key);
  if (conn == nullptr) {
    return;
  }
  if (const auto lit = listeners_.find(key.local_port);
      lit != listeners_.end() && lit->second.on_accept) {
    lit->second.on_accept(conn);
  }
}

void TcpStack::reap(const ConnKey& key) {
  // Defer the erase: reap is called from inside the connection's own
  // processing, often from one of its callbacks, and erasing it or
  // dropping that callback's owner could destroy either mid-method.
  simulator().schedule_after(SimTime::zero(), [this, key] {
    if (const auto it = lower_bound(key);
        it != conns_.end() && it->first == key) {
      const Connection::Ptr conn = std::move(it->second);
      conns_.erase(it);
      conn->release_callbacks();
    }
  });
}

void TcpStack::emit(net::Packet&& packet) {
  topology_.send(std::move(packet));
}

}  // namespace lsl::tcp
