#include "flow/tcp_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace lsl::flow {

const char* to_string(Cca cca) {
  switch (cca) {
    case Cca::kReno:
      return "reno";
    case Cca::kNewReno:
      return "newreno";
    case Cca::kCubic:
      return "cubic";
    case Cca::kBbr:
      return "bbr";
  }
  return "?";
}

bool parse_cca(std::string_view name, Cca& out) {
  if (name == "reno") {
    out = Cca::kReno;
  } else if (name == "newreno") {
    out = Cca::kNewReno;
  } else if (name == "cubic") {
    out = Cca::kCubic;
  } else if (name == "bbr") {
    out = Cca::kBbr;
  } else {
    return false;
  }
  return true;
}

Bandwidth steady_rate(const ConnectionParams& params) {
  LSL_ASSERT(params.rtt > SimTime::zero());
  const double rtt_s = params.rtt.to_seconds();
  double rate = params.bottleneck.bits_per_second();
  rate = std::min(rate,
                  static_cast<double>(params.window_bytes) * 8.0 / rtt_s);
  if (params.loss_rate > 0.0 && params.cca != Cca::kBbr) {
    const double mathis = kMathisConstant * static_cast<double>(kMss) * 8.0 /
                          (rtt_s * std::sqrt(params.loss_rate));
    double loss_limited = mathis;
    if (params.cca == Cca::kCubic) {
      // RFC 8312 response function: W_avg = K_c * (RTT/p)^(3/4) segments,
      // i.e. rate = K_c * mss * 8 / (RTT^(1/4) * p^(3/4)). CUBIC never does
      // worse than Reno -- below the crossover RTT it operates in the
      // TCP-friendly region, so the Mathis term is a floor, not replaced.
      const double cubic = kCubicRateConstant *
                           static_cast<double>(kMss) * 8.0 /
                           (std::pow(rtt_s, 0.25) *
                            std::pow(params.loss_rate, 0.75));
      loss_limited = std::max(mathis, cubic);
    }
    rate = std::min(rate, loss_limited);
  }
  // BBR models the pipe from delivery-rate and min-RTT estimates: random
  // loss neither shrinks its window nor its pacing rate, so only the
  // window/RTT and bottleneck caps above apply.
  return Bandwidth{std::max(rate, 1.0)};
}

SimTime data_time(const ConnectionParams& params, std::uint64_t bytes) {
  if (bytes == 0) {
    return SimTime::zero();
  }
  const Bandwidth steady = steady_rate(params);
  const double steady_window_bytes =
      steady.bytes_per_second() * params.rtt.to_seconds();

  // Slow-start ramp: one window per RTT, doubling, until the window that
  // sustains the steady rate is reached.
  double cwnd = static_cast<double>(kInitialCwndSegments) * kMss;
  double sent = 0.0;
  double elapsed_s = 0.0;
  const double rtt_s = params.rtt.to_seconds();
  while (cwnd < steady_window_bytes) {
    if (sent + cwnd >= static_cast<double>(bytes)) {
      // Finishes inside this ramp round.
      const double frac = (static_cast<double>(bytes) - sent) / cwnd;
      return SimTime::from_seconds(elapsed_s + frac * rtt_s);
    }
    sent += cwnd;
    elapsed_s += rtt_s;
    cwnd *= 2.0;
  }
  const double remaining = static_cast<double>(bytes) - sent;
  elapsed_s += remaining / steady.bytes_per_second();
  // Final half-RTT for the tail to arrive and be acknowledged.
  elapsed_s += rtt_s / 2.0;
  return SimTime::from_seconds(elapsed_s);
}

SimTime transfer_time(const ConnectionParams& params, std::uint64_t bytes) {
  // SYN + SYN-ACK costs one RTT before the first data byte leaves.
  return params.rtt + data_time(params, bytes);
}

}  // namespace lsl::flow
