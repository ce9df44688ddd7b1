// Per-node TCP stack: demultiplexes packets to connections, handles passive
// opens via listeners, allocates ephemeral ports, and reaps dead connections.
//
// The demux table is a vector sorted by ConnKey: a node holds a handful of
// connections, so a binary search over contiguous keys beats a tree walk,
// and iteration keeps the key order leak post-mortems print in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "tcp/connection.hpp"
#include "tcp/options.hpp"

namespace lsl::tcp {

struct ConnKey {
  net::NodeId remote = net::kInvalidNode;
  net::Port local_port = 0;
  net::Port remote_port = 0;

  friend auto operator<=>(const ConnKey&, const ConnKey&) = default;
};

class TcpStack : public net::ProtocolStack {
 public:
  using AcceptFn = std::function<void(Connection::Ptr)>;

  /// Attaches to `node` in `topology` as its protocol stack.
  TcpStack(net::Topology& topology, net::NodeId node);

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;
  /// Releases the callbacks of every connection still tracked (live, in
  /// TIME_WAIT, or dead but not yet reaped), so none outlives the stack.
  ~TcpStack() override;

  /// Accept connections on `port`; `on_accept` fires once each passive
  /// connection reaches ESTABLISHED. `options` applies to accepted sockets.
  void listen(net::Port port, AcceptFn on_accept,
              TcpOptions options = TcpOptions{});

  void stop_listening(net::Port port);

  /// Demultiplex a packet addressed to this node.
  void receive(net::Packet&& packet) override;

  /// Active open to (dst, dst_port). The returned socket is connecting;
  /// install callbacks immediately (on_connected fires later).
  Connection::Ptr connect(net::NodeId dst, net::Port dst_port,
                          TcpOptions options = TcpOptions{});

  [[nodiscard]] net::NodeId node_id() const { return node_; }
  [[nodiscard]] net::Topology& topology() { return topology_; }
  [[nodiscard]] sim::Simulator& simulator() { return topology_.simulator(); }
  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }

  /// True when the topology runs the fluid data plane (payload bytes ride
  /// fluid flows; packets carry only connection control).
  [[nodiscard]] bool fluid_mode() { return topology_.fluid() != nullptr; }

  /// Endpoint lookup for the fluid data plane's peer rendezvous.
  [[nodiscard]] Connection::Ptr find_connection(const ConnKey& key) {
    const auto it = lower_bound(key);
    return it != conns_.end() && it->first == key ? it->second : nullptr;
  }

  /// Diagnostics: visit every tracked connection (leak post-mortems), in
  /// ConnKey order.
  template <typename Fn>
  void for_each_connection(Fn&& fn) {
    for (auto& [key, conn] : conns_) {
      fn(*conn);
    }
  }

 private:
  friend class Connection;

  using ConnTable = std::vector<std::pair<ConnKey, Connection::Ptr>>;

  /// First entry whose key is not below `key`.
  [[nodiscard]] ConnTable::iterator lower_bound(const ConnKey& key);
  /// Track `conn` under `key`, unless the key is taken.
  void add(const ConnKey& key, Connection::Ptr conn);

  /// Deferred erase, which also releases the connection's callbacks; safe
  /// to call from within the connection's own packet/timer processing and
  /// its callbacks.
  void reap(const ConnKey& key);
  void emit(net::Packet&& packet);
  void deliver_accept(const ConnKey& key);

  struct Listener {
    AcceptFn on_accept;
    TcpOptions options;
  };

  net::Topology& topology_;
  net::NodeId node_;
  ConnTable conns_;  ///< sorted by key
  std::map<net::Port, Listener> listeners_;
  net::Port next_ephemeral_ = 49152;
};

}  // namespace lsl::tcp
