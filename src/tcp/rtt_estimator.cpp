#include "tcp/rtt_estimator.hpp"

#include <algorithm>
#include <cstdlib>

namespace lsl::tcp {

void RttEstimator::add_sample(SimTime rtt) {
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|; srtt = 7/8 srtt + 1/8 rtt
    const SimTime err{std::abs((srtt_ - rtt).ns())};
    rttvar_ = SimTime{(3 * rttvar_.ns()) / 4 + err.ns() / 4};
    srtt_ = SimTime{(7 * srtt_.ns()) / 8 + rtt.ns() / 8};
  }
  backoff_count_ = 0;
  base_rto_ = srtt_ + 4 * rttvar_;
  rto_ = base_rto_;
  clamp_rto();
}

void RttEstimator::backoff() {
  ++backoff_count_;
  if (base_rto_ == SimTime::zero()) {
    base_rto_ = rto_;
  }
  const int shift = std::min(backoff_count_, 16);
  rto_ = SimTime{base_rto_.ns() << shift};
  clamp_rto();
}

void RttEstimator::clamp_rto() {
  rto_ = std::clamp(rto_, kMinRto, kMaxRto);
}

}  // namespace lsl::tcp
