// LSL endpoints: the session initiator (source) and the asynchronous-session
// fetch receiver. Sinks need no dedicated class -- a Depot delivers sessions
// addressed to its own node and fires its completion callback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lsl/depot.hpp"
#include "lsl/header.hpp"
#include "tcp/stack.hpp"
#include "util/rng.hpp"

namespace lsl::session {

/// Everything needed to launch one LSL transfer.
struct TransferSpec {
  net::NodeId dst = net::kInvalidNode;
  /// Relay depots, in order; empty means a direct session.
  std::vector<net::NodeId> via;
  std::uint64_t payload_bytes = 0;
  tcp::TcpOptions tcp;
  bool async_session = false;
  std::optional<MulticastTree> multicast;
  /// Parallel serial-socket stripes sharing one session id (PSockets-style
  /// striping composed with logistical forwarding). Must be 1 for async
  /// and multicast sessions.
  std::uint16_t streams = 1;
  /// Reuse this id instead of generating one (session recovery relaunches
  /// the same session so the sink can aggregate progress).
  std::optional<SessionId> session_id;
  /// Resume: payload_bytes covers the remainder starting at this stream
  /// offset (the sink's committed byte count). Unicast, streams == 1 only.
  std::uint64_t resume_offset = 0;
};

/// Initiates a session: connects to the first hop (or the destination),
/// writes the session header followed by the payload, then closes. The
/// object lives until the local socket winds down.
class LslSource : public std::enable_shared_from_this<LslSource> {
 public:
  using Ptr = std::shared_ptr<LslSource>;

  /// Fired when the local send completes (all payload handed to TCP and the
  /// socket closed). End-to-end completion is observed at the receiving
  /// depot via its on_session_complete callback.
  std::function<void()> on_sent;

  /// Launch a transfer; returns the source (holding it is optional) with the
  /// generated session id available immediately.
  static Ptr start(tcp::TcpStack& stack, const TransferSpec& spec, Rng& rng);

  [[nodiscard]] const SessionId& session_id() const { return id_; }
  /// The underlying first-hop TCP connection of stripe 0 (tracing hooks).
  [[nodiscard]] tcp::Connection* connection() {
    return stripes_.empty() ? nullptr : stripes_.front().conn.get();
  }

 private:
  LslSource() = default;

  struct Stripe {
    tcp::Connection::Ptr conn;
    std::uint64_t remaining = 0;
    bool finished = false;
  };

  void pump(std::size_t stripe_index);

  SessionId id_;
  std::vector<Stripe> stripes_;
  std::size_t stripes_finished_ = 0;
};

/// Retrieves an asynchronously stored session from a depot (paper section 2:
/// "the receiver discovering the session identifier and reading the data
/// from the last depot").
class AsyncFetcher : public std::enable_shared_from_this<AsyncFetcher> {
 public:
  using Ptr = std::shared_ptr<AsyncFetcher>;

  struct Result {
    SessionHeader header;
    std::uint64_t bytes = 0;
    SimTime elapsed = SimTime::zero();
  };

  std::function<void(const Result&)> on_complete;
  std::function<void()> on_error;

  static Ptr start(tcp::TcpStack& stack, net::NodeId depot,
                   const SessionId& id, const tcp::TcpOptions& options);

 private:
  AsyncFetcher() = default;

  void on_readable();

  SimTime started_at_;
  sim::Simulator* sim_ = nullptr;
  tcp::Connection::Ptr conn_;
  std::vector<std::byte> hdr_buf_;
  std::optional<SessionHeader> header_;
  std::uint64_t payload_ = 0;
};

}  // namespace lsl::session
