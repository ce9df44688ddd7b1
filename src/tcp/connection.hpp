// TCP connection: loss detection and flow control over the packet simulator,
// with the congestion window delegated to a pluggable tcp::CongestionControl
// (Reno / NewReno / CUBIC / BBR -- see congestion.hpp, TcpOptions::cca).
//
// Implements the mechanisms the paper's "logistical effect" rests on:
//   * slow start & congestion avoidance (throughput ramps at RTT cadence),
//   * fast retransmit / fast recovery (NewReno partial-ACK handling),
//   * retransmission timeout with Jacobson/Karels RTO and Karn's rule,
//   * receive-window flow control from finite socket buffers (the depot
//     backpressure path), including zero-window probing,
//   * graceful close (FIN in both directions).
//
// Sequence numbering: each direction's SYN occupies wire sequence 0, data
// byte k occupies wire sequence 1+k, FIN occupies 1+stream_length. Buffers
// work in pure data offsets; the connection translates at the wire boundary.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "flow/fluid.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"
#include "tcp/congestion.hpp"
#include "tcp/options.hpp"
#include "tcp/recv_buffer.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/sack.hpp"
#include "tcp/send_buffer.hpp"

namespace lsl::tcp {

class TcpStack;

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kClosing,
  kCloseWait,
  kLastAck,
  kTimeWait,
  kDead,
};

[[nodiscard]] const char* to_string(TcpState s);

/// Abnormal termination causes, reported through Connection::on_error just
/// before on_closed. Local abort() is not an error (the application asked).
enum class ConnectionError {
  kNone = 0,
  kConnectTimeout,     ///< handshake exhausted kMaxSynRetries
  kReset,              ///< peer sent RST
  kRetransmitTimeout,  ///< data/FIN retransmits exhausted kMaxDataRetries
};

[[nodiscard]] const char* to_string(ConnectionError e);

/// Process-wide TCP instruments in the global metrics registry, shared by
/// every connection (stack-level aggregates; per-connection detail stays in
/// ConnectionStats). Obtained once at connection construction through
/// obs::bundle<TcpMetrics>() so hot-path updates are plain pointer stores.
struct TcpMetrics {
  explicit TcpMetrics(obs::Registry& reg)
      : connections(&reg.counter("tcp.conn.opened")),
        segments_sent(&reg.counter("tcp.conn.segments_sent")),
        retransmits(&reg.counter("tcp.conn.retransmits")),
        fast_retransmits(&reg.counter("tcp.conn.fast_retransmits")),
        timeouts(&reg.counter("tcp.conn.timeouts")),
        dup_acks(&reg.counter("tcp.conn.dup_acks")),
        sack_blocks_rx(&reg.counter("tcp.conn.sack_blocks_rx")),
        // RTTs on the paper's paths sit between ~1 ms (LAN) and seconds
        // under bufferbloat; cwnd in segments spans slow-start's doubling
        // range.
        rtt_ms(&reg.histogram("tcp.conn.rtt_ms",
                              obs::exponential_buckets(1.0, 2.0, 14))),
        cwnd_segments(&reg.histogram("tcp.conn.cwnd_segments",
                                     obs::exponential_buckets(1.0, 2.0, 16))) {
  }

  obs::Counter* connections;
  obs::Counter* segments_sent;
  obs::Counter* retransmits;
  obs::Counter* fast_retransmits;
  obs::Counter* timeouts;
  obs::Counter* dup_acks;
  obs::Counter* sack_blocks_rx;
  obs::Histogram* rtt_ms;
  obs::Histogram* cwnd_segments;
};

struct ConnectionStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
};

/// A TCP connection; doubles as the application-facing socket.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using Ptr = std::shared_ptr<Connection>;

  /// Application callbacks. All optional; fired from within packet/timer
  /// processing (never reentrantly into the caller of a socket method).
  std::function<void()> on_connected;
  std::function<void()> on_readable;
  std::function<void()> on_writable;
  std::function<void()> on_eof;     ///< peer FIN received & all data read
  std::function<void()> on_closed;  ///< connection fully terminated
  /// Abnormal termination (reset / connect timeout), fired immediately
  /// before on_closed. Clean FIN teardown never fires this, so endpoints
  /// can distinguish failure from EOF without inference.
  std::function<void(ConnectionError)> on_error;
  /// Sender-side trace hook: fires when cumulative acked payload advances;
  /// argument is total acked payload bytes (the paper's Figs 4/5 series).
  std::function<void(SimTime, std::uint64_t)> on_ack_advance;

  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- application API -------------------------------------------------
  /// Queue real bytes (must precede all synthetic payload). Returns accepted.
  std::uint64_t write_bytes(std::span<const std::byte> bytes);
  /// Queue synthetic payload bytes. Returns accepted.
  std::uint64_t write_synthetic(std::uint64_t n);
  /// Read up to `max` in-order bytes.
  RecvBuffer::ReadResult read(std::uint64_t max);
  /// Close the send direction after all queued data (half-close).
  void close();
  /// Hard abort: RST to peer, immediate teardown.
  void abort();

  [[nodiscard]] std::uint64_t readable_bytes() const {
    return recv_buf_.readable();
  }
  /// True once the peer's FIN is received and every byte has been read.
  [[nodiscard]] bool at_eof() const {
    return fin_rcvd_ && recv_buf_.readable() == 0;
  }

  // ---- introspection ---------------------------------------------------
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const ConnectionStats& stats() const { return stats_; }
  [[nodiscard]] const TcpOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t cwnd() const { return cc_->cwnd(); }
  [[nodiscard]] std::uint64_t ssthresh() const { return cc_->ssthresh(); }
  /// The congestion-control implementation driving this connection.
  [[nodiscard]] const CongestionControl& congestion() const { return *cc_; }
  [[nodiscard]] SimTime srtt() const { return rtt_.srtt(); }
  [[nodiscard]] net::NodeId remote_node() const { return remote_node_; }
  [[nodiscard]] net::Port local_port() const { return local_port_; }
  [[nodiscard]] net::Port remote_port() const { return remote_port_; }
  /// Total payload bytes the peer has acknowledged (sender-side progress).
  [[nodiscard]] std::uint64_t acked_payload() const;
  /// Why the connection died, kNone for clean teardown or while alive.
  [[nodiscard]] ConnectionError last_error() const { return error_; }

  /// One-line internal state summary for diagnostics.
  [[nodiscard]] std::string debug_string() const;

  // ---- causal spans (obs/span.hpp) -------------------------------------
  /// Attribute this connection's lifecycle to a session: from here on it
  /// emits Connect / Stream spans parented under `parent` (typically the
  /// owning attempt span) and RtoWait episodes, tagged with the session
  /// hash. Call right after connect(); no-op while span recording is off.
  void set_span_context(std::uint64_t session, std::uint64_t parent);
  /// Close any span this connection opened (idempotent; become_dead calls
  /// it with the error string, owners may call it earlier on detach).
  void end_spans(const char* reason);

 private:
  friend class TcpStack;

  Connection(TcpStack& stack, net::NodeId local, net::NodeId remote,
             net::Port local_port, net::Port remote_port, TcpOptions opts);

  void start_active_open();
  void start_passive_open();  ///< caller feeds the SYN via handle_packet

  void handle_packet(const net::Packet& packet);

  void process_ack(const net::Packet& packet);
  void process_payload(const net::Packet& packet);
  void process_fin(const net::Packet& packet);
  void maybe_accept_pending_fin();

  void try_send();
  void send_data_segment(std::uint64_t wire_seq, std::uint32_t len,
                         bool retransmission);
  /// A payload-free segment: SYN, FIN, RST or a pure ACK. A resent SYN or
  /// FIN is a retransmission and counts like a resent data segment.
  void send_control(std::uint8_t flags, std::uint64_t wire_seq,
                    bool retransmission = false);
  /// One sent segment, in the connection's stats and the registry.
  void count_sent(bool retransmission);
  void send_pure_ack();
  /// ACK generation for received data: immediate, or deferred per the
  /// delayed-ACK rules when enabled.
  void acknowledge_data(bool out_of_order);
  void attach_sack_blocks(net::TcpHeader& header);
  void maybe_send_window_update();

  void enter_recovery();
  /// RFC 3517-style pipe-limited recovery: while the estimated in-network
  /// byte count is below cwnd, retransmit presumed-lost holes (then new
  /// data). Self-clocked by arriving (dup/partial) ACKs.
  void recovery_fill();
  [[nodiscard]] std::uint64_t recovery_pipe() const;
  /// Retransmit the next presumed-lost, not-yet-retransmitted hole segment.
  /// Returns bytes sent (0 when no eligible hole remains).
  std::uint32_t send_next_recovery_hole();
  /// Retransmit up to one MSS of payload starting at `wire_seq`; returns the
  /// length sent (0 when nothing to send there).
  std::uint32_t retransmit_at(std::uint64_t wire_seq);
  void on_rto();
  void on_persist();
  void arm_rto();
  void restart_rto_if_needed();

  void advance_handshake_established();
  void span_on_established();
  void on_fin_acked();
  void enter_time_wait();
  void become_dead();
  /// Drop every application callback. They usually capture the socket's
  /// owner, which holds the socket, so a dead connection that kept them
  /// would keep itself and its owner alive; TcpStack calls this once the
  /// connection is reaped, and at teardown for the ones still tracked.
  void release_callbacks();

  // ---- fluid data plane ------------------------------------------------
  // When the topology runs at flow fidelity, payload bytes ride a fluid
  // flow instead of data segments: the pump offers window-sized chunks to
  // the fluid engine, transmit-completion markers schedule deliveries into
  // the peer's receive buffer after the path's one-way latency, and
  // deliveries schedule rate-less "ACK" callbacks that release the send
  // buffer. Packets still carry SYN/FIN/RST and window updates, so
  // handshake loss, resets, and teardown behave exactly as at packet
  // fidelity.
  [[nodiscard]] bool fluid_data_plane() const {
    return fluid_flow_ != flow::kInvalidFluidFlow;
  }
  /// Lazily create the fluid flow + peer binding; false when unavailable
  /// (packet fidelity, no route, or peer endpoint gone).
  bool ensure_fluid_channel();
  void fluid_pump();
  void on_fluid_transmitted(std::uint64_t end_offset);
  /// Receiver side: admit [offset, offset+len) into the receive buffer (or
  /// hold it in the pending queue while the buffer is full).
  void fluid_deliver(std::uint64_t offset, std::uint64_t len,
                     std::vector<std::byte> content, const Ptr& sender);
  /// Move held chunks into the receive buffer as space opens; returns
  /// whether the in-order frontier advanced. Schedules cumulative acks.
  bool fluid_admit_pending();
  /// Sender side: cumulative in-order receive frontier reported back.
  void fluid_handle_ack(std::uint64_t ack_data);
  void fluid_teardown();

  [[nodiscard]] std::uint64_t flight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t usable_window() const;
  [[nodiscard]] std::uint64_t advertised_window() const;
  [[nodiscard]] std::uint64_t stream_data_end_wire() const {
    return 1 + send_buf_.end();
  }

  TcpStack& stack_;
  sim::Simulator& sim_;
  net::NodeId local_node_;
  net::NodeId remote_node_;
  net::Port local_port_;
  net::Port remote_port_;
  TcpOptions opts_;

  TcpState state_ = TcpState::kClosed;
  ConnectionError error_ = ConnectionError::kNone;

  SendBuffer send_buf_;
  RecvBuffer recv_buf_;
  RttEstimator rtt_;

  // Sender state (wire sequence units).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_max_ = 0;  ///< highest wire seq ever sent
  std::uint64_t snd_wnd_ = 0;  ///< peer advertised window (bytes)
  std::unique_ptr<CongestionControl> cc_;  ///< owns cwnd/ssthresh
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  SackScoreboard sacked_;
  SackScoreboard rtx_out_;  ///< ranges retransmitted this recovery episode

  bool fin_pending_ = false;  ///< close() called, FIN not yet sent
  bool fin_sent_ = false;
  std::uint64_t fin_wire_ = 0;
  bool fin_acked_ = false;

  // Receiver state.
  std::uint64_t rcv_nxt_wire_ = 0;  ///< 0 until SYN arrives, then 1 + data
  bool syn_rcvd_ = false;
  bool peer_fin_seen_ = false;
  std::uint64_t peer_fin_seq_ = 0;
  bool fin_rcvd_ = false;
  bool eof_delivered_ = false;
  std::uint64_t last_advertised_wnd_ = 0;

  // RTT timing (Karn's algorithm): one timed segment at a time.
  bool timing_active_ = false;
  std::uint64_t timed_wire_end_ = 0;
  SimTime timed_sent_at_ = SimTime::zero();

  sim::Timer rto_timer_;
  sim::Timer persist_timer_;
  sim::Timer time_wait_timer_;
  sim::Timer delack_timer_;
  int unacked_segments_ = 0;  ///< data segments since the last ACK we sent
  int syn_retries_ = 0;
  int data_retries_ = 0;  ///< consecutive RTOs with no ACK progress

  ConnectionStats stats_;
  TcpMetrics* metrics_ = nullptr;  ///< shared instruments (may be null)
  std::uint64_t next_packet_uid_ = 1;

  // Causal span attribution (0 = no context / span closed).
  std::uint64_t span_session_ = 0;
  std::uint64_t span_parent_ = 0;
  std::uint64_t connect_span_ = 0;
  std::uint64_t stream_span_ = 0;
  SimTime rto_armed_at_ = SimTime::zero();

  // Fluid data plane (all zero/invalid at packet fidelity).
  struct FluidPending {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::vector<std::byte> content;
    Ptr sender;  ///< kept alive until its bytes are admitted and acked
  };

  flow::FluidFlowId fluid_flow_ = flow::kInvalidFluidFlow;
  bool fluid_checked_ = false;  ///< channel setup attempted (and failed)
  std::weak_ptr<Connection> fluid_peer_;
  SimTime fluid_fwd_latency_ = SimTime::zero();  ///< transmit end -> delivery
  SimTime fluid_rev_latency_ = SimTime::zero();  ///< delivery -> ack
  std::uint64_t fluid_window_ = 0;  ///< min(send buffer, peer recv buffer)
  std::uint64_t fluid_offered_ = 0;      ///< bytes handed to the engine
  std::uint64_t fluid_transmitted_ = 0;  ///< bytes whose markers fired
  std::uint64_t fluid_acked_ = 0;        ///< bytes released by acks
  /// Receiver side: arrived chunks waiting for receive-buffer space.
  std::deque<FluidPending> fluid_pending_;
};

}  // namespace lsl::tcp
