// Analytic TCP transfer-time model.
//
// The packet-level simulator is ground truth; this model reproduces its
// aggregate behaviour in closed form so the paper's 362,895-measurement
// PlanetLab sweep runs in seconds. A transfer is handshake + slow-start
// ramp (cwnd doubling per RTT from the initial window) + remainder at the
// steady rate
//     steady = min(bottleneck, window/RTT, mathis(RTT, loss)),
// where the Mathis term uses a constant calibrated against the simulator
// (per-segment ACKs + SACK recovery run hotter than the textbook 1.22).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/time.hpp"
#include "util/units.hpp"

namespace lsl::flow {

/// Congestion-control algorithm. Defined at the flow layer (not tcp/) so the
/// analytic model and the fluid engine can dispatch on it without depending
/// on the packet stack; tcp::Connection selects its CongestionControl
/// implementation from the same enum (TcpOptions::cca).
enum class Cca : std::uint8_t {
  kReno,     ///< AIMD; classic fast recovery (partial ACK ends the episode)
  kNewReno,  ///< AIMD; partial-ACK hole filling (the historical default)
  kCubic,    ///< RFC 8312: cubic window growth in real time, RTT-fair
  kBbr,      ///< rate-based: model the pipe (btl_bw x min_rtt), ignore loss
};

[[nodiscard]] const char* to_string(Cca cca);
/// Case-sensitive lowercase names: reno | newreno | cubic | bbr.
[[nodiscard]] bool parse_cca(std::string_view name, Cca& out);

/// Mathis constant calibrated against the packet simulator: bulk transfers
/// over lossy WANs (loss 1e-4..2e-3, RTT 20..80 ms, ample windows) imply
/// C in [1.3, 1.9] with a central value of ~1.65 -- hotter than the
/// textbook sqrt(3/2) because per-segment ACKs plus SACK/NewReno recovery
/// keep the pipe fuller than delayed-ACK Reno. Pinned by the calibration
/// golden in flow_model_test.cpp; re-run that test's harness when the
/// congestion-control or recovery code changes.
constexpr double kMathisConstant = 1.65;

/// CUBIC response-function constant: deterministic-loss average window is
///   W_avg = kCubicRateConstant * (RTT / p)^(3/4)   [segments, RTT seconds]
/// The textbook value for C=0.4, beta=0.7 is ~1.05; the simulator's
/// per-segment ACKs and SACK recovery run slightly hotter, matching the
/// Mathis-side calibration. Pinned by CalibrationGolden.CubicConstant.
constexpr double kCubicRateConstant = 1.17;

/// RFC 8312 CUBIC parameters shared by the packet stack and this model.
constexpr double kCubicC = 0.4;     ///< window growth scale (segments/s^3)
constexpr double kCubicBeta = 0.7;  ///< multiplicative-decrease factor

/// Maximum segment size (payload bytes per packet), shared by the packet
/// stack (tcp::kMss), the fluid engine and this model.
inline constexpr std::uint32_t kMss = 1460;

/// Initial congestion window, in segments (RFC 2581 allowed 2).
inline constexpr std::uint32_t kInitialCwndSegments = 2;

struct ConnectionParams {
  SimTime rtt = SimTime::milliseconds(50);
  /// Path capacity: min of link rates and host throughput caps.
  Bandwidth bottleneck = Bandwidth::mbps(100);
  /// Effective window: min(send buffer, receive buffer).
  std::uint64_t window_bytes = 64 * kKiB;
  double loss_rate = 0.0;
  /// Steady-state model dispatch: Reno/NewReno use the Mathis term, CUBIC
  /// the RFC 8312 response function (with its TCP-friendly floor), BBR is
  /// loss-agnostic (window/RTT and bottleneck caps only).
  Cca cca = Cca::kNewReno;
};

/// Long-run throughput of one connection.
[[nodiscard]] Bandwidth steady_rate(const ConnectionParams& params);

/// Time to move `bytes` over one connection, including the connection
/// handshake and the slow-start ramp.
[[nodiscard]] SimTime transfer_time(const ConnectionParams& params,
                                    std::uint64_t bytes);

/// Time for the data phase only (no handshake) -- used when composing
/// pipelined relay paths whose handshakes happen in series.
[[nodiscard]] SimTime data_time(const ConnectionParams& params,
                                std::uint64_t bytes);

}  // namespace lsl::flow
