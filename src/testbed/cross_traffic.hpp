// Background cross traffic for packet-level experiments.
//
// The paper's measurements ran over shared production networks; foreground
// transfers competed with everything else on the path. This injector keeps
// a population of on/off background TCP flows alive between host pairs,
// each flow sending an exponentially distributed burst, idling an
// exponentially distributed gap, then starting again elsewhere.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/harness.hpp"
#include "util/rng.hpp"

namespace lsl::testbed {

struct CrossTrafficConfig {
  /// Concurrent background flows to keep alive.
  std::size_t flows = 4;
  /// Mean burst size per flow activation.
  std::uint64_t mean_burst_bytes = 2 * kMiB;
  /// Mean idle gap between a flow finishing and its next activation.
  SimTime mean_gap = SimTime::milliseconds(200);
  /// Socket buffers for background flows.
  std::uint64_t tcp_buffer = 256 * kKiB;
};

/// Drives background flows over an exp::SimHarness. Construct after
/// deploy(); flows start immediately and run until the object dies.
class CrossTraffic {
 public:
  CrossTraffic(exp::SimHarness& harness, CrossTrafficConfig config,
               std::uint64_t seed);
  ~CrossTraffic();

  CrossTraffic(const CrossTraffic&) = delete;
  CrossTraffic& operator=(const CrossTraffic&) = delete;

  [[nodiscard]] std::uint64_t bytes_injected() const {
    return bytes_injected_;
  }
  [[nodiscard]] std::uint64_t bursts_completed() const {
    return bursts_completed_;
  }

 private:
  struct Slot;

  void start_burst(std::size_t slot);
  void schedule_next(std::size_t slot);

  exp::SimHarness& harness_;
  CrossTrafficConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint64_t bytes_injected_ = 0;
  std::uint64_t bursts_completed_ = 0;
  bool stopping_ = false;
};

}  // namespace lsl::testbed
