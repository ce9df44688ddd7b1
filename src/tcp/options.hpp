// Per-connection TCP settings, and the protocol constants every connection
// shares.
//
// The paper's experiments hinge on the socket buffers: the Abilene tests
// used 8 MB buffers set with setsockopt, PlanetLab hosts were pinned at
// 64 KB, and depot relays combine both. The constants mirror a
// conservative early-2000s Linux host.
#pragma once

#include <cstdint>

#include "flow/tcp_model.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace lsl::tcp {

/// Congestion-control algorithm selector (shared with the flow-level
/// steady-state model; see flow::Cca).
using Cca = flow::Cca;

/// Maximum segment size (payload bytes per packet).
inline constexpr std::uint32_t kMss = flow::kMss;

/// Initial congestion window, in segments (RFC 2581 allowed 2).
inline constexpr std::uint32_t kInitialCwndSegments =
    flow::kInitialCwndSegments;

/// With TcpOptions::delayed_ack, the longest an ACK is held back.
inline constexpr SimTime kDelayedAckTimeout = SimTime::milliseconds(40);

/// Give up on a handshake after this many SYN (or SYN-ACK)
/// retransmissions; the connection dies and on_closed fires.
inline constexpr int kMaxSynRetries = 6;

/// Give up after this many consecutive retransmission timeouts with no ACK
/// progress (RFC 1122's R2 in spirit); the connection dies with
/// kRetransmitTimeout. Bounds teardown when the peer vanishes without a
/// RST reaching us -- crashed host, partitioned link.
inline constexpr int kMaxDataRetries = 10;

/// Retransmission timer: the RTO before the first RTT sample, and the
/// clamps on the Jacobson/Karels estimator's output.
inline constexpr SimTime kInitialRto = SimTime::seconds(1);
inline constexpr SimTime kMinRto = SimTime::milliseconds(200);
inline constexpr SimTime kMaxRto = SimTime::seconds(60);

/// Linger in TIME_WAIT before the connection object is reaped. Kept far
/// below 2*MSL; sequence reuse cannot occur in the 64-bit sim space.
inline constexpr SimTime kTimeWaitLinger = SimTime::milliseconds(500);

struct TcpOptions {
  /// Congestion-control algorithm (tcp::CongestionControl implementation).
  /// NewReno + SACK is the historical default every calibration golden and
  /// determinism baseline was recorded against.
  Cca cca = Cca::kNewReno;

  /// Socket send buffer (bytes the app may queue ahead of ACKs).
  std::uint64_t send_buffer_bytes = 64 * kKiB;

  /// Socket receive buffer; its free space is the advertised window.
  std::uint64_t recv_buffer_bytes = 64 * kKiB;

  /// Selective acknowledgment (on by default, as in Linux 2.4). When off,
  /// loss recovery degrades to plain NewReno partial-ACK hole filling.
  bool sack_enabled = true;

  /// Delayed acknowledgments (RFC 1122): ACK every second full segment or
  /// after kDelayedAckTimeout, whichever first; out-of-order data is ACKed
  /// immediately. Off by default so that direct-vs-relayed comparisons are
  /// clocked identically; the ablation benches exercise it.
  bool delayed_ack = false;

  [[nodiscard]] TcpOptions with_buffers(std::uint64_t bytes) const {
    TcpOptions o = *this;
    o.send_buffer_bytes = bytes;
    o.recv_buffer_bytes = bytes;
    return o;
  }

  [[nodiscard]] TcpOptions with_cca(Cca algorithm) const {
    TcpOptions o = *this;
    o.cca = algorithm;
    return o;
  }
};

}  // namespace lsl::tcp
