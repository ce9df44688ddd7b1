#include "tcp/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace lsl::tcp {

namespace {
constexpr std::uint64_t kHugeSsthresh =
    std::numeric_limits<std::uint64_t>::max() / 2;
/// min_rtt samples older than this are considered stale (a reroute or
/// queue drain may have changed the path) and are replaced outright.
constexpr SimTime kMinRttWindow = SimTime::seconds(10);
}  // namespace

CongestionControl::CongestionControl()
    : ssthresh_(kHugeSsthresh), metrics_(obs::bundle<CcaMetrics>()) {}

CongestionControl::~CongestionControl() = default;

void CongestionControl::on_rtt_sample(SimTime /*sample*/, SimTime /*now*/) {}

void CongestionControl::on_recovery_dup_ack() { cwnd_ += mss(); }

void CongestionControl::on_partial_ack(std::uint64_t newly) {
  // NewReno deflation: remove the acked bytes, add one MSS back for the
  // segment the partial ACK implies has left the network.
  cwnd_ = (cwnd_ > newly ? cwnd_ - newly : mss()) + mss();
}

bool CongestionControl::partial_ack_keeps_recovery() const { return true; }

void CongestionControl::on_recovery_exit(SimTime /*now*/) {
  cwnd_ = std::max(ssthresh_, static_cast<std::uint64_t>(2) * mss());
  if (metrics_ != nullptr) {
    metrics_->recovery_exits->inc();
  }
}

// ---------------------------------------------------------------------------
// Reno / NewReno

void RenoFamilyCc::on_ack(std::uint64_t newly, std::uint64_t /*flight*/,
                          SimTime /*now*/, SimTime /*srtt*/) {
  if (cwnd_ < ssthresh_) {
    // Slow start: byte-counted growth capped at one MSS per ACK.
    cwnd_ += std::min<std::uint64_t>(newly, mss());
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::uint64_t>(1, mss() * mss() / cwnd_);
  }
}

void RenoFamilyCc::on_enter_recovery(std::uint64_t flight, SimTime /*now*/) {
  ssthresh_ =
      std::max(flight / 2, static_cast<std::uint64_t>(2) * mss());
  cwnd_ = ssthresh_ + static_cast<std::uint64_t>(3) * mss();
  if (metrics_ != nullptr) {
    metrics_->loss_events->inc();
  }
}

void RenoFamilyCc::on_rto(std::uint64_t flight, SimTime /*now*/) {
  ssthresh_ =
      std::max(flight / 2, static_cast<std::uint64_t>(2) * mss());
  cwnd_ = mss();
  if (metrics_ != nullptr) {
    metrics_->rto_collapses->inc();
  }
}

// ---------------------------------------------------------------------------
// CUBIC (RFC 8312)

double CubicCc::w_cubic(double t) const {
  const double d = t - k_;
  return flow::kCubicC * d * d * d + w_max_seg_;
}

void CubicCc::sync_cwnd() {
  cwnd_seg_ = std::max(cwnd_seg_, 2.0);
  cwnd_ = static_cast<std::uint64_t>(cwnd_seg_ * static_cast<double>(mss()));
}

void CubicCc::start_epoch(SimTime now) {
  epoch_start_ = now;
  epoch_valid_ = true;
  if (w_max_seg_ < cwnd_seg_) {
    // No reduction on record below the current window (e.g. the very first
    // congestion-avoidance round): anchor the curve at the current window.
    w_max_seg_ = cwnd_seg_;
  }
  // Time for W(t) to climb back to w_max from beta*w_max: W(0) then equals
  // the post-reduction window, so the curve continues seamlessly.
  k_ = std::cbrt(w_max_seg_ * (1.0 - flow::kCubicBeta) / flow::kCubicC);
}

void CubicCc::on_ack(std::uint64_t newly, std::uint64_t /*flight*/,
                     SimTime now, SimTime srtt) {
  if (cwnd_ < ssthresh_) {
    // Slow start, byte-counted exactly like Reno.
    cwnd_ += std::min<std::uint64_t>(newly, mss());
    cwnd_seg_ = static_cast<double>(cwnd_) / static_cast<double>(mss());
    return;
  }
  if (!epoch_valid_) {
    start_epoch(now);
  }
  const double rtt_s = std::max(srtt.to_seconds(), 1e-6);
  const double t = (now - epoch_start_).to_seconds();
  // RFC 8312 TCP-friendly region: the window standard AIMD would have
  // reached since the epoch began. 3(1-beta)/(1+beta) segments per RTT.
  const double w_est =
      w_max_seg_ * flow::kCubicBeta +
      (3.0 * (1.0 - flow::kCubicBeta) / (1.0 + flow::kCubicBeta)) *
          (t / rtt_s);
  if (w_cubic(t) < w_est) {
    friendly_ = true;
    if (cwnd_seg_ < w_est) {
      cwnd_seg_ = w_est;
    }
  } else {
    friendly_ = false;
    // Concave/convex region: aim one RTT ahead on the cubic curve,
    // spreading the step across the ~cwnd ACKs of this round.
    const double target = w_cubic(t + rtt_s);
    if (target > cwnd_seg_) {
      cwnd_seg_ += (target - cwnd_seg_) / cwnd_seg_;
    } else {
      cwnd_seg_ += 0.01 / cwnd_seg_;  // plateau: token growth
    }
  }
  sync_cwnd();
}

void CubicCc::reduce(SimTime /*now*/) {
  const double cur = cwnd_seg_;
  if (cur < w_max_seg_) {
    // Fast convergence: losing again before regaining w_max means a new
    // flow is taking share; release some by remembering a smaller peak.
    w_max_seg_ = cur * (1.0 + flow::kCubicBeta) / 2.0;
    if (metrics_ != nullptr) {
      metrics_->cubic_fast_conv->inc();
    }
  } else {
    w_max_seg_ = cur;
  }
  epoch_valid_ = false;
}

void CubicCc::on_enter_recovery(std::uint64_t /*flight*/, SimTime now) {
  reduce(now);
  cwnd_seg_ = std::max(cwnd_seg_ * flow::kCubicBeta, 2.0);
  ssthresh_ = std::max(
      static_cast<std::uint64_t>(cwnd_seg_ * static_cast<double>(mss())),
      static_cast<std::uint64_t>(2) * mss());
  // Same transient inflation as Reno's recovery entry: the three duplicate
  // ACKs prove segments left the network. on_recovery_exit deflates back
  // to ssthresh.
  cwnd_ = ssthresh_ + static_cast<std::uint64_t>(3) * mss();
  if (metrics_ != nullptr) {
    metrics_->loss_events->inc();
  }
}

void CubicCc::on_recovery_exit(SimTime now) {
  CongestionControl::on_recovery_exit(now);
  cwnd_seg_ = static_cast<double>(cwnd_) / static_cast<double>(mss());
}

void CubicCc::on_rto(std::uint64_t /*flight*/, SimTime now) {
  reduce(now);
  cwnd_seg_ = std::max(cwnd_seg_ * flow::kCubicBeta, 2.0);
  ssthresh_ = std::max(
      static_cast<std::uint64_t>(cwnd_seg_ * static_cast<double>(mss())),
      static_cast<std::uint64_t>(2) * mss());
  // Go-back-N restart from one segment; slow start climbs back to ssthresh.
  cwnd_ = mss();
  cwnd_seg_ = 1.0;
  if (metrics_ != nullptr) {
    metrics_->rto_collapses->inc();
  }
}

// ---------------------------------------------------------------------------
// BBR-like

namespace {
/// Probe-bw inflight-cap gains, advanced one step per delivery round: one
/// probing step, one draining step, six cruising steps (BBRv1's cycle
/// applied to the window cap rather than a pacing rate).
constexpr double kProbeBwGains[8] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0,
                                     1.0};
}  // namespace

SimTime BbrCc::round_rtt(SimTime srtt) const {
  if (has_rtt_) {
    return min_rtt_;
  }
  return srtt > SimTime::zero() ? srtt : SimTime::milliseconds(10);
}

std::uint64_t BbrCc::bdp_bytes() const {
  if (!has_rtt_ || btl_bw_bps_ <= 0.0) {
    return 0;
  }
  return static_cast<std::uint64_t>(btl_bw_bps_ / 8.0 *
                                    min_rtt_.to_seconds());
}

void BbrCc::set_phase(Phase next) {
  if (phase_ == next) {
    return;
  }
  phase_ = next;
  if (metrics_ != nullptr) {
    metrics_->bbr_phase_moves->inc();
  }
}

void BbrCc::end_round(std::uint64_t flight, SimTime now) {
  const double span_s = (now - round_start_).to_seconds();
  if (span_s <= 0.0) {
    return;
  }
  const double bw = static_cast<double>(round_bytes_) * 8.0 / span_s;
  bw_samples_[bw_next_] = bw;
  bw_next_ = (bw_next_ + 1) % kBwWindowRounds;
  btl_bw_bps_ = *std::max_element(bw_samples_, bw_samples_ + kBwWindowRounds);

  switch (phase_) {
    case Phase::kStartup:
      // Exit once the bottleneck estimate plateaus: less than 25% growth
      // across three consecutive rounds (the pipe is full).
      if (btl_bw_bps_ >= full_bw_bps_ * 1.25 || full_bw_bps_ == 0.0) {
        full_bw_bps_ = btl_bw_bps_;
        full_bw_rounds_ = 0;
      } else if (++full_bw_rounds_ >= 3) {
        set_phase(Phase::kDrain);
      }
      break;
    case Phase::kDrain:
      // Startup overshot to ~2.9x BDP; hold the cap at one BDP until the
      // queue it built has drained.
      if (flight <= bdp_bytes()) {
        set_phase(Phase::kProbeBw);
        cycle_index_ = 0;
      }
      break;
    case Phase::kProbeBw:
      cycle_index_ = (cycle_index_ + 1) % 8;
      break;
  }
}

void BbrCc::recompute_cwnd() {
  double gain = kStartupGain;
  switch (phase_) {
    case Phase::kStartup:
      gain = kStartupGain;
      break;
    case Phase::kDrain:
      gain = 1.0;
      break;
    case Phase::kProbeBw:
      gain = kCwndGain * kProbeBwGains[cycle_index_];
      break;
  }
  const auto target = static_cast<std::uint64_t>(
      gain * static_cast<double>(bdp_bytes()));
  cwnd_ = std::max(target, static_cast<std::uint64_t>(4) * mss());
}

void BbrCc::on_ack(std::uint64_t newly, std::uint64_t flight, SimTime now,
                   SimTime srtt) {
  if (!round_open_) {
    round_open_ = true;
    round_start_ = now;
    round_bytes_ = 0;
  }
  round_bytes_ += newly;
  const SimTime rtt = round_rtt(srtt);
  if (now - round_start_ >= rtt && now > round_start_) {
    end_round(flight, now);
    round_start_ = now;
    round_bytes_ = 0;
  }
  if (btl_bw_bps_ <= 0.0 || !has_rtt_) {
    // No pipe model yet: grow exponentially (slow-start-like) so the first
    // delivery-rate rounds have something to measure.
    cwnd_ += std::min<std::uint64_t>(newly, mss());
    return;
  }
  recompute_cwnd();
}

void BbrCc::on_rtt_sample(SimTime sample, SimTime now) {
  if (!has_rtt_ || sample <= min_rtt_ ||
      now - min_rtt_at_ > kMinRttWindow) {
    min_rtt_ = sample;
    min_rtt_at_ = now;
    has_rtt_ = true;
  }
}

void BbrCc::on_enter_recovery(std::uint64_t /*flight*/, SimTime /*now*/) {
  // Loss is not a congestion signal for the model; SACK recovery refills
  // holes under the unchanged window while the phase machine keeps running.
  if (metrics_ != nullptr) {
    metrics_->loss_events->inc();
  }
}

void BbrCc::on_recovery_dup_ack() {}

void BbrCc::on_partial_ack(std::uint64_t /*newly*/) {}

void BbrCc::on_recovery_exit(SimTime /*now*/) {
  if (metrics_ != nullptr) {
    metrics_->recovery_exits->inc();
  }
}

void BbrCc::on_rto(std::uint64_t /*flight*/, SimTime /*now*/) {
  // Conservative go-back-N restart; the next completed round re-inflates
  // the window straight from the (retained) pipe model.
  cwnd_ = mss();
  round_open_ = false;
  round_bytes_ = 0;
  if (metrics_ != nullptr) {
    metrics_->rto_collapses->inc();
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<CongestionControl> make_congestion_control(
    const TcpOptions& opts) {
  switch (opts.cca) {
    case Cca::kReno:
      return std::make_unique<RenoCc>();
    case Cca::kNewReno:
      return std::make_unique<NewRenoCc>();
    case Cca::kCubic:
      return std::make_unique<CubicCc>();
    case Cca::kBbr:
      return std::make_unique<BbrCc>();
  }
  return std::make_unique<NewRenoCc>();
}

}  // namespace lsl::tcp
