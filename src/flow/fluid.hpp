// Event-driven fluid (flow-level) network engine.
//
// The packet kernel charges events per segment, which caps sweeps near
// 10^3-host pools; this engine charges events per *rate change*. A
// FluidNetwork holds directed links with capacities, each active transfer is
// one Flow over its link path, and a max-min water-fill assigns every flow the
// fair share of its bottleneck link. Rates are recomputed on flow
// arrival/departure, link capacity/loss changes, and slow-start cap
// doublings, and each recompute water-fills every active flow of the network.
// That is as cheap as the traffic is small: over the scenarios, the pool
// sweeps, scale_sweep and fault-fuzzed depot churn, no network had more than
// 6 flows active at once or 30 started in all, and no more than two active
// flows ever shared a link (only in depot_churn), so solving just the flows
// a change touches would save nothing.
//
// Calibration carries over from the analytic model (tcp_model.hpp): a flow's
// demand cap is min(window/RTT, Mathis(path loss)) via flow::steady_rate,
// and new flows ramp through cwnd doubling per RTT exactly as data_time
// assumes, so the three fidelities (analytic / fluid / packet) share one
// TCP parameterization.
//
// Byte accounting is continuous: callers offer bytes (add_bytes) and
// register offset markers (notify_at). A flow's progress is linear between
// rate changes, and the engine fires each marker at the instant its offset
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

/// A flow's start order plus one; 0 is never a valid flow. Ids are never
/// reused, so a stale id keeps naming its ended flow.
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
  /// 0 disables the slow-start ramp (the flow starts at its steady cap).
  std::uint32_t initial_cwnd_segments = kInitialCwndSegments;
  /// Steady-state cap dispatch (flow::steady_rate): Mathis for Reno-family,
  /// the RFC 8312 response function for CUBIC, loss-agnostic for BBR.
  Cca cca = Cca::kNewReno;
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
  /// loss 1.0, brownouts throttle rate / raise loss). Refreshes the Mathis
  /// cap of every flow crossing it and re-solves.
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
  /// Bytes fully transmitted by now.
  [[nodiscard]] std::uint64_t transmitted(FluidFlowId id) const;

  [[nodiscard]] bool alive(FluidFlowId id) const {
    return find(id) != nullptr;
  }
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

 private:
  struct Marker {
    std::uint64_t offset = 0;
    std::function<void()> cb;
  };

  struct FlowState {
    FluidFlowSpec spec;
    bool in_use = true;
    bool active = false;
    bool ramping = false;
    double steady_cap = 0.0;  ///< bps: min(window/RTT, Mathis)
    double ramp_cap = 0.0;    ///< bps: slow-start cap, doubles per RTT
    double rate = 0.0;        ///< bps: current solved rate
    /// Bytes sent by last_advance; progress() extends it linearly at `rate`.
    double transmitted = 0.0;
    std::uint64_t offered = 0;  ///< bytes handed in
    SimTime last_advance = SimTime::zero();
    std::deque<Marker> markers;
    sim::EventId marker_event{};
    sim::EventId ramp_event{};
    // Water-fill scratch (valid only during solve()).
    double solve_rate = 0.0;
    bool solve_fixed = false;
  };

  struct LinkState {
    double capacity = 0.0;   ///< raw bps (payload goodput)
    double loss = 0.0;
    double effective = 0.0;  ///< capacity * (1 - loss)
    // Water-fill scratch.
    double solve_residual = 0.0;
    std::uint32_t solve_unfixed = 0;
  };

  [[nodiscard]] FlowState* find(FluidFlowId id);
  [[nodiscard]] const FlowState* find(FluidFlowId id) const;

  [[nodiscard]] double compute_steady_cap(const FluidFlowSpec& spec) const;
  [[nodiscard]] double demand_cap(const FlowState& f) const;
  /// Bytes sent by now: linear from the last anchor at the current rate.
  [[nodiscard]] double progress(const FlowState& f) const;
  [[nodiscard]] std::uint64_t backlog(const FlowState& f) const;
  /// Move the anchor to now (call before the rate changes).
  void reanchor(FlowState& f);

  /// Max-min water-fill over every active flow; flows whose rate changed
  /// are re-anchored and their next marker rescheduled.
  void solve();

  void activate(FluidFlowId id, FlowState& f);
  void deactivate(FlowState& f);
  void schedule_marker(FluidFlowId id, FlowState& f);
  void on_marker(FluidFlowId id);
  void arm_ramp(FluidFlowId id, FlowState& f);
  void on_ramp(FluidFlowId id);

  sim::Simulator& sim_;
  std::vector<LinkState> links_;
  std::vector<FlowState> flows_;  ///< flows_[id - 1], in start order
  std::size_t active_count_ = 0;
};

}  // namespace lsl::flow
