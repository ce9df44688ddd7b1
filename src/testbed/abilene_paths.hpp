// The paper's two measured Abilene paths (section 3), as packet-level
// scenarios:
//   UCSB -> UIUC via a depot in Denver  (Figures 2 and 5)
//   UCSB -> UF   via a depot in Houston (Figures 3 and 4)
//
// Link RTTs reproduce the paper's table exactly (46+45 vs 70 ms and
// 68+34 vs 87 ms). Loss rates and capacities are calibration constants: the
// authors' absolute bandwidths depended on 2004 Abilene conditions we
// cannot recover, so they are chosen to land in the same regime (tens of
// Mbit/s steady state, sublink ordering as described in the text -- the
// Denver leg fast and clean, producing Fig 5's 32 MB depot-buffer knee; the
// Houston leg the bottleneck of its path, producing Fig 4's matched slopes).
#pragma once

#include <memory>
#include <string>

#include "exp/harness.hpp"

namespace lsl::testbed {

/// Both paths run over the paper's OC-3 links.
inline constexpr Bandwidth kPathCapacity = Bandwidth::mbps(155);
/// Deep router buffers (Abilene-era backbone): at least the endpoints'
/// 8 MB windows, so slow-start overshoot does not add artificial loss.
inline constexpr std::uint64_t kPathQueueBytes = 8 * kMiB;
/// Paper: Linux 2.4 hosts, 8 MB buffers via setsockopt, at the endpoints
/// and the depot alike.
inline constexpr std::uint64_t kEndpointBuffer = 8 * kMiB;
inline constexpr std::uint64_t kDepotKernelBuffer = 8 * kMiB;

struct PathScenario {
  std::string name;
  /// One-way propagation delays (RTT = 2x). Paper RTTs: see above.
  SimTime src_depot_delay;
  SimTime depot_dst_delay;
  SimTime direct_delay;
  double leg1_loss = 1e-4;
  double leg2_loss = 1e-4;
  double direct_loss = 1e-4;
  /// Paper: the depot allocates send+receive buffer bytes of user storage;
  /// with 8 MB kernel buffers the total pipeline is 32 MB.
  std::uint64_t depot_user_buffer = 16 * kMiB;
};

/// UCSB -> UIUC via Denver: RTTs 46 / 45 / 70 ms. The Denver leg is fast
/// and clean; the Denver->UIUC leg is the bottleneck (Fig 5's narrative).
[[nodiscard]] PathScenario ucsb_uiuc_via_denver();

/// UCSB -> UF via Houston: RTTs 68 / 34 / 87 ms. The UCSB->Houston leg is
/// the bottleneck; Houston->UF "carries all the load presented to it".
[[nodiscard]] PathScenario ucsb_uf_via_houston();

/// A built three-host testbed for a scenario: src -- depot -- dst plus a
/// pinned direct link matching the measured direct RTT.
class PathTestbed {
 public:
  PathTestbed(const PathScenario& scenario, std::uint64_t seed);

  [[nodiscard]] exp::SimHarness& harness() { return *harness_; }
  [[nodiscard]] net::NodeId src() const { return src_; }
  [[nodiscard]] net::NodeId depot() const { return depot_; }
  [[nodiscard]] net::NodeId dst() const { return dst_; }

  /// The transfer spec used by launch(); exposed for traced launches.
  [[nodiscard]] session::TransferSpec make_spec(bool via_depot,
                                                std::uint64_t bytes) const;

  /// Launch one transfer (direct or via the depot).
  [[nodiscard]] exp::SimHarness::Handle launch(bool via_depot,
                                               std::uint64_t bytes);
  [[nodiscard]] exp::SimHarness::TransferOutcome run(bool via_depot,
                                                     std::uint64_t bytes);

 private:
  std::unique_ptr<exp::SimHarness> harness_;
  net::NodeId src_ = 0;
  net::NodeId depot_ = 0;
  net::NodeId dst_ = 0;
};

}  // namespace lsl::testbed
