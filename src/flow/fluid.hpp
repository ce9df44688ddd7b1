// Event-driven fluid (flow-level) network engine.
//
// The packet kernel charges events per segment, which caps sweeps near
// 10^3-host pools; this engine charges events per *rate change*. A
// FluidNetwork holds directed links with capacities, each active transfer is
// one Flow over its link path, and a progressive-filling max-min solver
// assigns every flow the fair share of its bottleneck link. Rates are
// recomputed only on flow arrival/departure, link capacity/loss changes, and
// slow-start cap doublings -- and each recompute touches only the connected
// component (flows transitively sharing links) of the change, so disjoint
// transfers never pay for each other.
//
// Calibration carries over from the analytic model (tcp_model.hpp): a flow's
// demand cap is min(window/RTT, Mathis(path loss)) via flow::steady_rate,
// and new flows ramp through cwnd doubling per RTT exactly as data_time
// assumes, so the three fidelities (analytic / fluid / packet) share one
// TCP parameterization.
//
// Byte accounting is continuous: callers offer bytes (add_bytes) and
// register offset markers (notify_at); the engine integrates transmitted
// bytes at the solved rate and fires each marker at the instant its offset
// has fully left the sender. There is no per-byte event and no randomness:
// loss enters only through the Mathis cap and the (1 - loss) capacity
// discount, so fluid runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "flow/tcp_model.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace lsl::flow {

using FluidLinkId = std::uint32_t;

/// Generation-tagged flow handle; 0 is never a valid flow.
using FluidFlowId = std::uint64_t;
inline constexpr FluidFlowId kInvalidFluidFlow = 0;

struct FluidFlowSpec {
  /// Directed links the flow traverses, in order.
  std::vector<FluidLinkId> path;
  /// Path round-trip time: bounds throughput at window/RTT and paces the
  /// slow-start ramp.
  SimTime rtt = SimTime::milliseconds(50);
  /// Effective window: min(send buffer, peer receive buffer).
  std::uint64_t window_bytes = 64 * 1024;
  std::uint32_t mss = 1460;
  /// 0 disables the slow-start ramp (the flow starts at its steady cap).
  std::uint32_t initial_cwnd_segments = 2;
  /// Steady-state cap dispatch (flow::steady_rate): Mathis for Reno-family,
  /// the RFC 8312 response function for CUBIC, loss-agnostic for BBR.
  Cca cca = Cca::kNewReno;
};

/// Aggregate engine counters (reported by benches and --explain).
struct FluidStats {
  std::uint64_t flows_started = 0;
  std::uint64_t solves = 0;        ///< component re-solves
  std::uint64_t flows_rated = 0;   ///< flow-rate assignments summed over solves
  std::uint64_t markers_fired = 0;
};

class FluidNetwork {
 public:
  explicit FluidNetwork(sim::Simulator& simulator);
  ~FluidNetwork();

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Register a directed link. `capacity_bps` should already be discounted
  /// to payload goodput (header overhead); `loss_rate` additionally scales
  /// the shareable capacity by (1 - loss) and feeds flows' Mathis caps.
  FluidLinkId add_link(double capacity_bps, double loss_rate = 0.0);

  /// Update a link in place (fault injection: link-down is capacity 0 via
  /// loss 1.0, brownouts throttle rate / raise loss). Re-solves the link's
  /// component and refreshes the Mathis cap of every flow crossing it.
  void set_link(FluidLinkId id, double capacity_bps, double loss_rate);

  [[nodiscard]] double link_capacity_bps(FluidLinkId id) const;

  /// Create a flow. Flows start idle (no backlog, no share) until bytes are
  /// offered; the slow-start ramp runs only while the flow has backlog.
  FluidFlowId start_flow(FluidFlowSpec spec);

  /// Destroy a flow, releasing its share to the residual set. Pending
  /// markers are dropped without firing. Idempotent on stale ids.
  void end_flow(FluidFlowId id);

  /// Offer `n` more bytes; an idle flow becomes active (rates re-solve).
  void add_bytes(FluidFlowId id, std::uint64_t n);

  /// Fire `cb` when the flow's transmitted-byte count reaches `offset`.
  /// Offsets must be registered in nondecreasing order; an offset already
  /// reached fires on the next event dispatch.
  void notify_at(FluidFlowId id, std::uint64_t offset,
                 std::function<void()> cb);

  /// Current solved rate (bps). 0 when idle or stalled on a dead link.
  [[nodiscard]] double rate_bps(FluidFlowId id) const;
  /// Current demand cap: min(slow-start cap, window/RTT, Mathis).
  [[nodiscard]] double cap_bps(FluidFlowId id) const;
  /// Bytes fully transmitted, integrated to now.
  [[nodiscard]] std::uint64_t transmitted(FluidFlowId id) const;

  [[nodiscard]] bool alive(FluidFlowId id) const {
    return find(id) != nullptr;
  }
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }
  [[nodiscard]] const FluidStats& stats() const { return stats_; }

  /// Testing hook: run a from-scratch global max-min solve (no state
  /// mutation) and return the largest absolute rate discrepancy vs the
  /// incrementally maintained rates. ~0 when incremental solving is exact.
  [[nodiscard]] double max_rate_error_for_test();

 private:
  struct Marker {
    std::uint64_t offset = 0;
    std::function<void()> cb;
  };

  struct FlowState {
    FluidFlowSpec spec;
    std::uint32_t gen = 0;
    bool in_use = false;
    bool active = false;
    bool ramping = false;
    double steady_cap = 0.0;  ///< bps: min(window/RTT, Mathis)
    double ramp_cap = 0.0;    ///< bps: slow-start cap, doubles per RTT
    double rate = 0.0;        ///< bps: current solved rate
    double transmitted = 0.0;        ///< bytes, integrated to last_advance
    std::uint64_t offered = 0;       ///< bytes handed in
    SimTime last_advance = SimTime::zero();
    std::deque<Marker> markers;
    sim::EventId marker_event{};
    sim::EventId ramp_event{};
    std::uint32_t epoch = 0;  ///< component BFS stamp
    // Progressive-filling scratch (valid only during solve()).
    double solve_rate = 0.0;
    double solve_cap = 0.0;
    bool solve_fixed = false;
  };

  struct LinkState {
    double capacity = 0.0;   ///< raw bps (payload goodput)
    double loss = 0.0;
    double effective = 0.0;  ///< capacity * (1 - loss)
    /// Every flow whose path crosses this link (active or idle).
    std::vector<FluidFlowId> flows;
    std::uint32_t epoch = 0;
    // Progressive-filling scratch.
    double solve_residual = 0.0;
    std::uint32_t solve_unfixed = 0;
  };

  static constexpr std::uint32_t kIndexBits = 32;
  [[nodiscard]] static std::uint32_t index_of(FluidFlowId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFULL) - 1;
  }
  [[nodiscard]] static std::uint32_t gen_of(FluidFlowId id) {
    return static_cast<std::uint32_t>(id >> kIndexBits);
  }
  [[nodiscard]] FluidFlowId id_of(std::uint32_t index) const {
    return (static_cast<FluidFlowId>(flows_[index].gen) << kIndexBits) |
           (index + 1);
  }

  [[nodiscard]] FlowState* find(FluidFlowId id);
  [[nodiscard]] const FlowState* find(FluidFlowId id) const;

  [[nodiscard]] double compute_steady_cap(const FluidFlowSpec& spec) const;
  [[nodiscard]] double demand_cap(const FlowState& f) const;
  [[nodiscard]] std::uint64_t backlog(const FlowState& f) const;

  /// Integrate transmitted bytes at the current rate up to now.
  void advance_progress(FlowState& f);

  /// Re-solve the connected component reachable from the seed flow (may be
  /// kInvalidFluidFlow) and seed links.
  void resolve(FluidFlowId seed_flow,
               const std::vector<FluidLinkId>& seed_links);
  /// Progressive filling over comp_flows_/comp_links_ (already collected);
  /// leaves per-flow results in solve_rate.
  void fill_component();

  void activate(FluidFlowId id, FlowState& f);
  void deactivate(FlowState& f);
  void schedule_marker(FluidFlowId id, FlowState& f);
  void on_marker(FluidFlowId id);
  void arm_ramp(FluidFlowId id, FlowState& f);
  void on_ramp(FluidFlowId id);

  sim::Simulator& sim_;
  std::vector<LinkState> links_;
  std::vector<FlowState> flows_;
  std::vector<std::uint32_t> free_flows_;
  std::size_t active_count_ = 0;
  std::uint32_t epoch_ = 0;
  FluidStats stats_;
  // Component-collection scratch, reused across solves.
  std::vector<FluidFlowId> comp_flows_;
  std::vector<FluidLinkId> comp_links_;
};

}  // namespace lsl::flow
