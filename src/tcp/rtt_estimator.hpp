// Jacobson/Karels smoothed RTT estimation with Karn's algorithm handled by
// the caller (only un-retransmitted segments are sampled).
#pragma once

#include "tcp/options.hpp"
#include "util/time.hpp"

namespace lsl::tcp {

class RttEstimator {
 public:
  /// Feed one RTT sample; updates srtt/rttvar/rto per RFC 6298 and resets
  /// any timer backoff.
  void add_sample(SimTime rtt);

  /// Exponential backoff after a retransmission timeout.
  void backoff();

  [[nodiscard]] SimTime rto() const { return rto_; }
  [[nodiscard]] SimTime srtt() const { return srtt_; }
  [[nodiscard]] SimTime rttvar() const { return rttvar_; }
  [[nodiscard]] bool has_sample() const { return has_sample_; }

 private:
  void clamp_rto();

  SimTime srtt_ = SimTime::zero();
  SimTime rttvar_ = SimTime::zero();
  SimTime rto_ = kInitialRto;
  SimTime base_rto_ = SimTime::zero();  ///< rto before backoff
  int backoff_count_ = 0;
  bool has_sample_ = false;
};

}  // namespace lsl::tcp
