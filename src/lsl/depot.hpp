// LSL depot: the user-level session-layer router.
//
// A depot listens on the LSL port and, per accepted session:
//   * parses the in-band session header,
//   * picks the next hop (loose source route option, then its route table,
//     then direct to the destination),
//   * relays the byte stream through a bounded user-space buffer with
//     backpressure -- it only reads from the upstream socket when buffer
//     space exists, so TCP flow control propagates upstream exactly as in
//     the paper's measured 32 MB pipeline (2 x 8 MB kernel + 2 x 8 MB user),
//   * delivers locally (and fires the completion callback) when this node is
//     the session's destination,
//   * stores the payload for async sessions (receiver fetches later), and
//   * fans a multicast staging tree session out to its children.
//
// Admission control (paper section 6 future work): a depot refuses new
// sessions past max_sessions.
#pragma once

#include <deque>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "lsl/header.hpp"
#include "lsl/route_table.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::session {

/// Process-wide depot instruments in the global metrics registry (aggregated
/// across depots; per-depot detail stays in DepotStats).
struct DepotMetrics {
  explicit DepotMetrics(obs::Registry& reg)
      : sessions_accepted(&reg.counter("lsl.depot.sessions_accepted")),
        sessions_refused(&reg.counter("lsl.depot.sessions_refused")),
        sessions_relayed(&reg.counter("lsl.depot.sessions_relayed")),
        sessions_delivered(&reg.counter("lsl.depot.sessions_delivered")),
        bytes_relayed(&reg.counter("lsl.depot.bytes_relayed")),
        bytes_delivered(&reg.counter("lsl.depot.bytes_delivered")),
        sessions_interrupted(&reg.counter("lsl.depot.sessions_interrupted")),
        sessions_resumed(&reg.counter("lsl.depot.sessions_resumed")),
        offset_queries(&reg.counter("lsl.depot.offset_queries")),
        stall_us(&reg.counter("lsl.depot.stall_us")),
        buffer_occupancy(&reg.gauge("lsl.depot.buffer_occupancy")),
        // Session sizes from the paper span 1 MiB .. 1 GiB in doublings.
        relay_session_mib(
            &reg.histogram("lsl.depot.relay_session_mib",
                           obs::exponential_buckets(1.0, 2.0, 11))) {}

  obs::Counter* sessions_accepted;
  obs::Counter* sessions_refused;
  obs::Counter* sessions_relayed;
  obs::Counter* sessions_delivered;
  obs::Counter* bytes_relayed;
  obs::Counter* bytes_delivered;
  obs::Counter* sessions_interrupted;
  obs::Counter* sessions_resumed;
  obs::Counter* offset_queries;
  obs::Counter* stall_us;             ///< buffer-full time
  obs::Gauge* buffer_occupancy;       ///< bytes
  obs::Histogram* relay_session_mib;
};

/// Largest single read when a relay pulls from its upstream socket.
inline constexpr std::uint64_t kRelayChunkBytes = 256 * kKiB;

struct DepotConfig {
  /// User-space relay buffer per session. The paper's depots allocate
  /// send_buffer + receive_buffer bytes of user storage (16 MB with the
  /// 8 MB kernel buffers used on Abilene).
  std::uint64_t user_buffer_bytes = 16 * kMiB;
  /// TCP options for both the accepted (upstream) and initiated
  /// (downstream) connections -- the "kernel buffers".
  tcp::TcpOptions tcp;
  /// Admission control: refuse sessions beyond this many concurrent.
  std::size_t max_sessions = 1024;
  /// Total bytes of parked asynchronous sessions this depot will hold;
  /// storing past the cap evicts the oldest sessions first.
  std::uint64_t max_store_bytes = 256 * kMiB;
};

struct DepotStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_refused = 0;
  std::uint64_t sessions_relayed = 0;
  std::uint64_t sessions_delivered = 0;
  std::uint64_t sessions_stored = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t bytes_relayed = 0;
  std::uint64_t bytes_delivered = 0;
  /// Sessions whose upstream died (reset / timeout) before completion.
  std::uint64_t sessions_interrupted = 0;
  /// Deliveries that resumed from a nonzero committed offset.
  std::uint64_t sessions_resumed = 0;
};

/// A completed local delivery (this node was the destination).
struct SessionRecord {
  SessionHeader header;
  std::uint64_t bytes = 0;
  SimTime accepted_at = SimTime::zero();
  SimTime completed_at = SimTime::zero();
};

class Depot {
 public:
  /// Fired when a session addressed to this node finishes arriving.
  std::function<void(const SessionRecord&)> on_session_complete;

  /// Fired when this depot opens a downstream relay connection -- a unicast
  /// next hop or a multicast child -- before the handshake completes, with
  /// the header it will carry; experiments attach trace hooks here.
  std::function<void(tcp::Connection&, const SessionHeader&)>
      on_downstream_open;

  Depot(tcp::TcpStack& stack, DepotConfig config);
  ~Depot();

  Depot(const Depot&) = delete;
  Depot& operator=(const Depot&) = delete;

  void set_route_table(RouteTable table) { routes_ = std::move(table); }
  [[nodiscard]] const RouteTable& route_table() const { return routes_; }

  /// Take the depot out of service: stop listening, abort every active
  /// session (peers see RST), drop the async store. The object remains
  /// valid for introspection; restart() brings it back.
  void shutdown();
  void restart();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] const DepotStats& stats() const { return stats_; }
  [[nodiscard]] net::NodeId node_id() const { return stack_.node_id(); }
  [[nodiscard]] std::size_t active_sessions() const { return active_; }

  /// Committed byte count for a (possibly interrupted) delivery, 0 when the
  /// session is unknown. This is what kOffsetQuery probes read; a source
  /// resumes its resend from here instead of byte 0.
  [[nodiscard]] std::uint64_t committed_offset(const SessionId& id) const;

  /// Async-session store introspection (bytes held for a session id).
  [[nodiscard]] std::optional<std::uint64_t> stored_bytes(
      const SessionId& id) const;
  [[nodiscard]] std::uint64_t store_bytes_used() const {
    return store_bytes_used_;
  }

 private:
  class Relay;
  friend class Relay;

  void on_accept(tcp::Connection::Ptr conn);
  void relay_done(Relay* relay);
  /// Park an async session, evicting the oldest entries past the cap.
  void store_session(const SessionHeader& header, std::uint64_t bytes);
  /// Defer store_session to its own simulator event (zero delay) carrying a
  /// per-depot mc actor tag, so a model-checking ChoiceHook can interleave
  /// store/eviction orderings across depots. Pending events are cancelled on
  /// shutdown (a crashed depot parks nothing).
  void schedule_store(const SessionHeader& header, std::uint64_t bytes);
  /// Account one finished local delivery; aggregates striped sessions and
  /// fires on_session_complete when the whole session has arrived.
  void session_delivered(const SessionHeader& header, std::uint64_t bytes,
                         SimTime accepted_at);
  /// Record delivery progress for resume (monotonic per session, bounded
  /// ledger with FIFO eviction). Returns the previous committed value (0
  /// for a new entry) so delivery accounting can deduplicate against it.
  std::uint64_t commit_progress(const SessionId& id, std::uint64_t bytes);
  /// Report a relay's user buffer (user_buffer_bytes) claimed or freed to
  /// the model checker's protocol observer; returns the bytes claimed.
  [[nodiscard]] std::uint64_t reserve_user_memory();
  void release_user_memory(std::uint64_t bytes);

  tcp::TcpStack& stack_;
  DepotConfig config_;
  RouteTable routes_;
  DepotStats stats_;
  std::size_t active_ = 0;
  std::vector<std::shared_ptr<Relay>> relays_;
  /// Stored async sessions: id -> (header, payload byte count), plus
  /// insertion order for capacity eviction.
  std::unordered_map<SessionId, std::pair<SessionHeader, std::uint64_t>,
                     SessionIdHash>
      store_;
  std::deque<SessionId> store_order_;
  std::uint64_t store_bytes_used_ = 0;
  /// Deferred store_session events not yet fired (see schedule_store).
  std::vector<sim::EventId> pending_stores_;
  /// Partially arrived striped sessions: id -> (bytes so far, stripes left,
  /// earliest accept time).
  struct PartialStripes {
    std::uint64_t bytes = 0;
    std::uint16_t remaining = 0;
    SimTime first_accepted = SimTime::zero();
  };
  std::unordered_map<SessionId, PartialStripes, SessionIdHash> stripes_;
  /// Delivery-progress ledger: id -> committed bytes, FIFO-bounded. Survives
  /// shutdown()/restart() -- it models what the receiving application has
  /// already consumed, which a depot process crash does not undo.
  std::unordered_map<SessionId, std::uint64_t, SessionIdHash> progress_;
  std::deque<SessionId> progress_order_;
  bool running_ = true;
  DepotMetrics* metrics_ = nullptr;  ///< shared instruments (may be null)
};

}  // namespace lsl::session
