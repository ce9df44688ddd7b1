// Deterministic fault plans (paper §6: "the tolerance of depot failure...
// is an area for future work").
//
// A FaultPlan is a list of timed faults -- link outages, link brownouts
// (elevated loss for an interval), depot crash/restart, and NWS measurement
// blackouts -- that a FaultInjector schedules onto the simulation kernel.
// Plans come from two sources: explicit scenario directives and seeded
// MTBF/MTTR renewal processes (add_churn), so whole failure experiments
// replay bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lsl::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,      ///< 100% loss on both directions of a duplex link
  kLinkBrownout,  ///< elevated loss and/or throttled rate, both directions
  kDepotCrash,    ///< depot out of service; restarts after `duration`
  kNwsBlackout,   ///< measurement epochs suspended (forecasts go stale)
};

[[nodiscard]] const char* to_string(FaultKind k);

struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDown;
  SimTime at = SimTime::zero();
  /// Time until the fault heals; zero means it is permanent.
  SimTime duration = SimTime::zero();
  net::NodeId node = net::kInvalidNode;    ///< depot faults
  net::NodeId link_a = net::kInvalidNode;  ///< link faults (duplex pair)
  net::NodeId link_b = net::kInvalidNode;
  double loss = 0.3;  ///< brownout loss probability
  /// Brownout residual-rate multiplier: the duplex pair's link rate is
  /// scaled by this while the fault is live (1.0 = loss-only brownout).
  /// Unlike loss, a throttled rate is what NWS bandwidth probes measure,
  /// so rate brownouts drive the forecasts -- and the RouteAdvisor.
  double rate_factor = 1.0;

  [[nodiscard]] bool permanent() const { return duration == SimTime::zero(); }
  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Seeded crash/repair renewal process for one depot: up-times are
/// exponential with mean `mtbf`, repair times exponential with mean `mttr`.
struct ChurnSpec {
  net::NodeId node = net::kInvalidNode;
  SimTime mtbf = SimTime::seconds(60);
  SimTime mttr = SimTime::seconds(5);
  SimTime start = SimTime::zero();
  SimTime horizon = SimTime::seconds(600);  ///< no crashes injected after
};

struct FaultPlan {
  std::vector<FaultSpec> faults;

  void add(const FaultSpec& fault) { faults.push_back(fault); }
  /// Expand a churn process into concrete kDepotCrash faults drawn from
  /// `rng`; identical (spec, rng state) always yields the identical plan.
  void add_churn(const ChurnSpec& churn, Rng& rng);

  /// Faults in injection order (stable sort by time).
  [[nodiscard]] std::vector<FaultSpec> sorted() const;
  [[nodiscard]] bool empty() const { return faults.empty(); }
};

// ---- schedule perturbation (model checking / fuzzing) ----------------------

/// One single-fault time shift of a plan: `plan` is the original with
/// fault number `fault` moved by `offset` (its `at` clamped at zero). This
/// is how the explorer probes "what if this fault had landed during the
/// offset query / the handover drain / the backoff".
struct Perturbation {
  std::size_t fault = 0;
  SimTime offset = SimTime::zero();
  FaultPlan plan;
};

/// One variant per (fault, offset) pair, faults outer and offsets inner,
/// never the original plan itself: a shift that lands exactly on the
/// fault's own time (a zero offset, or one clamped onto a fault at zero)
/// is dropped. Deterministic; no rng involved.
[[nodiscard]] std::vector<Perturbation> perturbations(
    const FaultPlan& plan, const std::vector<SimTime>& offsets);

/// Every random fault lasts between these two. Never permanent: a stranded
/// fault would leave depot relays holding buffer grants forever.
inline constexpr SimTime kMinFaultDuration = SimTime::milliseconds(50);
inline constexpr SimTime kMaxFaultDuration = SimTime::seconds(4);
static_assert(kMinFaultDuration > SimTime::zero());

/// Every random plan holds between these many faults, inclusive.
inline constexpr int kMinRandomFaults = 1;
inline constexpr int kMaxRandomFaults = 4;
/// Random fault times are drawn in [0, kRandomFaultHorizon).
inline constexpr SimTime kRandomFaultHorizon = SimTime::seconds(20);

/// Candidate space for seeded random fault plans (the fault fuzzer).
struct RandomPlanSpec {
  std::vector<net::NodeId> depots;  ///< depot-crash candidates
  std::vector<std::pair<net::NodeId, net::NodeId>> links;  ///< link faults
};

/// Draw a random fault plan from `spec` using `rng`; identical (spec, rng
/// state) always yields the identical plan.
[[nodiscard]] FaultPlan random_plan(const RandomPlanSpec& spec, Rng& rng);

}  // namespace lsl::fault
