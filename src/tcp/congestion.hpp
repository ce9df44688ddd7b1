// Congestion-control algorithms, factored out of tcp::Connection.
//
// The connection owns the loss-detection machinery (dup-ACK counting, SACK
// scoreboards, RTO timers, go-back-N) and reports events here; the
// CongestionControl implementation owns cwnd/ssthresh and decides how the
// window responds. Four stacks:
//
//   * Reno     -- AIMD with classic fast recovery: the first partial ACK
//                 deflates to ssthresh and ends the episode.
//   * NewReno  -- AIMD with partial-ACK hole filling (RFC 6582); bitwise
//                 identical to the pre-refactor hard-coded behaviour, and
//                 the default every golden/baseline was recorded against.
//   * CUBIC    -- RFC 8312: w_max/K cubic growth in real time, TCP-friendly
//                 region, fast convergence. Window-fair across RTTs.
//   * BBR      -- BBR-like rate-based control: startup/drain/probe-bw phases
//                 driven by a windowed-max delivery-rate filter and the
//                 min-RTT estimate; loss does not shrink the window. The
//                 simulator's ACK clock self-paces the window-sized pipe
//                 cap, standing in for packet pacing (see docs/tcp.md).
//
// All state advances only on simulator events, so every stack is
// deterministic under the parallel trial engine.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "tcp/options.hpp"
#include "util/time.hpp"

namespace lsl::tcp {

/// Process-wide CCA instruments (tcp.conn.cca.*), resolved per registry
/// through obs::bundle<CcaMetrics>() the same way as TcpMetrics.
struct CcaMetrics {
  explicit CcaMetrics(obs::Registry& reg)
      : loss_events(&reg.counter("tcp.conn.cca.loss_events")),
        rto_collapses(&reg.counter("tcp.conn.cca.rto_collapses")),
        recovery_exits(&reg.counter("tcp.conn.cca.recovery_exits")),
        bbr_phase_moves(&reg.counter("tcp.conn.cca.bbr_phase_moves")),
        cubic_fast_conv(
            &reg.counter("tcp.conn.cca.cubic_fast_convergence")) {}

  obs::Counter* loss_events;
  obs::Counter* rto_collapses;
  obs::Counter* recovery_exits;
  obs::Counter* bbr_phase_moves;
  obs::Counter* cubic_fast_conv;
};

class CongestionControl {
 public:
  CongestionControl();
  virtual ~CongestionControl();

  CongestionControl(const CongestionControl&) = delete;
  CongestionControl& operator=(const CongestionControl&) = delete;

  [[nodiscard]] virtual Cca kind() const = 0;
  [[nodiscard]] std::uint64_t cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint64_t ssthresh() const { return ssthresh_; }

  /// Cumulative ACK advanced by `newly` bytes outside loss recovery.
  /// `flight` is the post-advance outstanding byte count, `srtt` the
  /// current smoothed RTT (zero before the first sample).
  virtual void on_ack(std::uint64_t newly, std::uint64_t flight, SimTime now,
                      SimTime srtt) = 0;

  /// An RTT measurement accepted under Karn's rule (~one per RTT).
  virtual void on_rtt_sample(SimTime sample, SimTime now);

  /// Third duplicate ACK: the connection is entering fast recovery.
  /// Implementations set ssthresh and the recovery cwnd.
  virtual void on_enter_recovery(std::uint64_t flight, SimTime now) = 0;

  /// Additional duplicate ACK while in non-SACK recovery: classic window
  /// inflation for the segment that left the network.
  virtual void on_recovery_dup_ack();

  /// Partial ACK inside non-SACK recovery (NewReno deflation).
  virtual void on_partial_ack(std::uint64_t newly);

  /// Whether a partial ACK keeps the connection in fast recovery (NewReno
  /// lineage) or ends the episode after deflating (classic Reno).
  [[nodiscard]] virtual bool partial_ack_keeps_recovery() const;

  /// Recovery episode completed (full ACK at or above the recovery point,
  /// or a Reno-style early exit).
  virtual void on_recovery_exit(SimTime now);

  /// Retransmission timeout. `flight` is measured before the go-back-N
  /// rewind.
  virtual void on_rto(std::uint64_t flight, SimTime now) = 0;

 protected:
  [[nodiscard]] static constexpr std::uint64_t mss() { return kMss; }

  std::uint64_t cwnd_ = std::uint64_t{kInitialCwndSegments} * kMss;
  std::uint64_t ssthresh_ = 0;
  CcaMetrics* metrics_ = nullptr;  ///< shared instruments (may be null)
};

/// Reno/NewReno share every window formula; they differ only in whether a
/// partial ACK sustains the recovery episode.
class RenoFamilyCc : public CongestionControl {
 public:
  void on_ack(std::uint64_t newly, std::uint64_t flight, SimTime now,
              SimTime srtt) override;
  void on_enter_recovery(std::uint64_t flight, SimTime now) override;
  void on_rto(std::uint64_t flight, SimTime now) override;
};

class RenoCc final : public RenoFamilyCc {
 public:
  [[nodiscard]] Cca kind() const override { return Cca::kReno; }
  [[nodiscard]] bool partial_ack_keeps_recovery() const override {
    return false;
  }
};

class NewRenoCc final : public RenoFamilyCc {
 public:
  [[nodiscard]] Cca kind() const override { return Cca::kNewReno; }
};

/// RFC 8312 CUBIC. The window is tracked in fractional segments so the
/// sub-MSS per-ACK increments of the cubic curve accumulate instead of
/// truncating to zero.
class CubicCc final : public CongestionControl {
 public:
  [[nodiscard]] Cca kind() const override { return Cca::kCubic; }
  void on_ack(std::uint64_t newly, std::uint64_t flight, SimTime now,
              SimTime srtt) override;
  void on_enter_recovery(std::uint64_t flight, SimTime now) override;
  void on_recovery_exit(SimTime now) override;
  void on_rto(std::uint64_t flight, SimTime now) override;

  // Inspection for the deterministic unit tests.
  [[nodiscard]] double w_max_segments() const { return w_max_seg_; }
  [[nodiscard]] double k_seconds() const { return k_; }
  [[nodiscard]] double cwnd_segments() const { return cwnd_seg_; }
  [[nodiscard]] bool in_tcp_friendly_region() const { return friendly_; }

 private:
  void reduce(SimTime now);       ///< shared loss response (w_max, ssthresh)
  void start_epoch(SimTime now);  ///< begin a congestion-avoidance epoch
  [[nodiscard]] double w_cubic(double t) const;  ///< W(t) in segments
  void sync_cwnd();  ///< mirror cwnd_seg_ into the byte-valued cwnd_

  double cwnd_seg_ = kInitialCwndSegments;  ///< fractional cwnd, segments
  double w_max_seg_ = 0.0;   ///< window at the last reduction
  double k_ = 0.0;           ///< time to regain w_max (seconds)
  SimTime epoch_start_ = SimTime::zero();
  bool epoch_valid_ = false;
  bool friendly_ = false;    ///< last growth came from the W_est floor
};

/// BBR-like rate-based control. Maintains btl_bw (windowed max of per-round
/// delivery-rate samples) and min_rtt (windowed min of RTT samples), and
/// sets cwnd = gain * btl_bw * min_rtt with the gain driven by a
/// startup/drain/probe-bw phase machine. Loss events do not reduce the
/// window; only an RTO collapses it (go-back-N restart), and the model
/// re-inflates on the next delivery-rate round.
class BbrCc final : public CongestionControl {
 public:
  enum class Phase : std::uint8_t { kStartup, kDrain, kProbeBw };

  [[nodiscard]] Cca kind() const override { return Cca::kBbr; }
  void on_ack(std::uint64_t newly, std::uint64_t flight, SimTime now,
              SimTime srtt) override;
  void on_rtt_sample(SimTime sample, SimTime now) override;
  void on_enter_recovery(std::uint64_t flight, SimTime now) override;
  void on_recovery_dup_ack() override;
  void on_partial_ack(std::uint64_t newly) override;
  void on_recovery_exit(SimTime now) override;
  void on_rto(std::uint64_t flight, SimTime now) override;

  // Inspection for the deterministic unit tests.
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] double btl_bw_bps() const { return btl_bw_bps_; }
  [[nodiscard]] SimTime min_rtt() const { return min_rtt_; }

 private:
  static constexpr int kBwWindowRounds = 10;   ///< max-filter depth
  static constexpr double kStartupGain = 2.885;  ///< 2/ln(2)
  static constexpr double kCwndGain = 2.0;       ///< probe-bw BDP multiple

  void end_round(std::uint64_t flight, SimTime now);
  void set_phase(Phase next);
  [[nodiscard]] SimTime round_rtt(SimTime srtt) const;
  [[nodiscard]] std::uint64_t bdp_bytes() const;
  void recompute_cwnd();

  Phase phase_ = Phase::kStartup;
  double btl_bw_bps_ = 0.0;
  double bw_samples_[kBwWindowRounds] = {};
  int bw_next_ = 0;

  SimTime min_rtt_ = SimTime::zero();
  SimTime min_rtt_at_ = SimTime::zero();
  bool has_rtt_ = false;

  // Delivery-rate rounds: bytes acked per >= one round-trip of wall time.
  SimTime round_start_ = SimTime::zero();
  bool round_open_ = false;
  std::uint64_t round_bytes_ = 0;

  // Startup plateau detection (bw grew < 25% for 3 consecutive rounds).
  double full_bw_bps_ = 0.0;
  int full_bw_rounds_ = 0;

  // Probe-bw gain cycling, advanced once per round.
  int cycle_index_ = 0;
};

[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion_control(
    const TcpOptions& opts);

}  // namespace lsl::tcp
