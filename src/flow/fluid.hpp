// Event-driven fluid (flow-level) network engine.
//
// The packet kernel charges events per segment, which caps sweeps near
// 10^3-host pools; this engine charges events per *rate change*. A
// FluidNetwork holds directed links with capacities, each active transfer is
// one Flow over its link path, and a max-min water-fill assigns every flow the
// fair share of its bottleneck link. Rates are recomputed on flow
// arrival/departure, link capacity/loss changes, slow-start cap doublings and
// splice boundaries, and each recompute water-fills every active flow of the
// network once, splice caps included. That is as cheap as the traffic is
// small. A probe of the flow workloads (the five scenarios at --seed 7, each
// also with --sweep and --fuzz-faults 8, the 48-host pool sweep, fig09 at
// full scale, scale_sweep and ablate_cca --preset=2004) found no network
// with more than 6 flows active at once or 17 started in all, no more than
// two active flows on one link (depot_churn, and fuzzed abilene_uiuc and
// high_bdp), no more than 5 splices live or 5 created in all (fig09), and
// never two full buffers at once; no water-fill took more than 6 rounds. So
// solving just the flows a change touches would save nothing.
//
// Calibration carries over from the analytic model (tcp_model.hpp): a flow's
// demand cap is min(window/RTT, Mathis(path loss)) via flow::steady_rate,
// and new flows ramp through cwnd doubling per RTT exactly as data_time
// assumes, so the three fidelities (analytic / fluid / packet) share one
// TCP parameterization.
//
// Byte accounting is continuous: callers offer bytes (add_bytes), may stop a
// flow at an offset (set_limit), and register offset markers that fire when
// the offset has left the sender (notify_at) or, one latency later, has
// arrived (notify_arrival). A flow's progress is linear between rate
// changes, and the engine keeps each flow's trajectory over its last
// latency, so arrivals are that trajectory delayed. There is no per-byte
// event and no randomness: loss enters only through the Mathis cap and the
// (1 - loss) capacity discount, so fluid runs are exactly reproducible.
//
// A splice couples two flows through a relay's bounded buffer: the child
// transmits only payload that has arrived from the upstream, and the
// upstream leads the child by at most the buffer's capacity. While the child
// has caught up with its supply its rate is capped at the upstream's rate
// one latency earlier; while the buffer is full the upstream's rate is capped
// at the child's. The water-fill applies that cap child-first, as each child's
// rate is fixed, so a chain of full buffers settles in the one water-fill.
// The only events a splice adds are those boundaries: the child catching up,
// the buffer filling, and an upstream rate change reaching a caught-up child.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
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

/// A splice's creation order plus one; 0 is never a valid splice.
using FluidSpliceId = std::uint64_t;
inline constexpr FluidSpliceId kInvalidSplice = 0;

/// set_limit's "no limit".
inline constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

struct FluidFlowSpec {
  /// Directed links the flow traverses, in order.
  std::vector<FluidLinkId> path;
  /// Path round-trip time: bounds throughput at window/RTT and paces the
  /// slow-start ramp.
  SimTime rtt = SimTime::milliseconds(50);
  /// One-way latency: a byte transmitted at t arrives at t + latency.
  SimTime latency = SimTime::zero();
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
  /// markers are dropped without firing, and every splice the flow is part
  /// of ends. Idempotent on stale ids. transmitted() and arrived() keep
  /// answering for an ended flow: nothing is sent after the end.
  void end_flow(FluidFlowId id);

  /// Offer `n` more bytes; an idle flow becomes active (rates re-solve).
  void add_bytes(FluidFlowId id, std::uint64_t n);

  /// Transmit nothing past `offset` (kNoLimit lifts the limit). A flow
  /// stopped at its limit holds no share until the limit is raised.
  void set_limit(FluidFlowId id, std::uint64_t offset);

  /// Fire `cb` when the flow's transmitted-byte count reaches `offset`.
  /// Markers at equal offsets fire in registration order; an offset
  /// already reached fires on the next event dispatch.
  void notify_at(FluidFlowId id, std::uint64_t offset,
                 std::function<void()> cb);

  /// Fire `cb` once byte `offset` has arrived: one latency after the flow
  /// transmitted it. Every marker due at one instant fires in one event,
  /// in offset order (registration order among equal offsets).
  void notify_arrival(FluidFlowId id, std::uint64_t offset,
                      std::function<void()> cb);

  /// Current solved rate (bps). 0 when idle or stalled on a dead link.
  [[nodiscard]] double rate_bps(FluidFlowId id) const;
  /// Current demand cap: min(slow-start cap, window/RTT, Mathis).
  [[nodiscard]] double cap_bps(FluidFlowId id) const;
  /// Bytes fully transmitted by now.
  [[nodiscard]] std::uint64_t transmitted(FluidFlowId id) const;
  /// Bytes arrived by now: what was transmitted one latency ago.
  [[nodiscard]] std::uint64_t arrived(FluidFlowId id) const;

  [[nodiscard]] bool alive(FluidFlowId id) const {
    return find(id) != nullptr;
  }
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

  // ---- splices ---------------------------------------------------------
  /// Couple `upstream` to a relay buffer of `capacity` bytes: its payload
  /// starts at stream offset `upstream_base`, and its transmitted payload
  /// may lead the child's by at most `capacity` (bytes in flight count).
  /// Until a child is attached the child has transmitted nothing, so the
  /// upstream fills the buffer and stops.
  FluidSpliceId splice(FluidFlowId upstream, std::uint64_t upstream_base,
                       std::uint64_t capacity);
  /// Supply `child`'s payload, which starts at its stream offset
  /// `child_base`, from the upstream's arrivals: the child never transmits
  /// payload that has not arrived.
  void attach_child(FluidSpliceId id, FluidFlowId child,
                    std::uint64_t child_base);
  /// Uncouple both flows (idempotent).
  void end_splice(FluidSpliceId id);

  struct SpliceStats {
    /// Time the buffer spent full (up to now while still full).
    SimTime full_time = SimTime::zero();
    /// Highest level (upstream payload transmitted minus the child's) seen
    /// at a rate change or boundary; the level is linear in between.
    std::uint64_t peak_level = 0;
  };
  [[nodiscard]] SpliceStats splice_stats(FluidSpliceId id) const;
  [[nodiscard]] std::size_t active_splices() const;

 private:
  struct Marker {
    std::uint64_t offset = 0;
    std::function<void()> cb;
  };

  /// One linear piece of a flow's trajectory: `x` bytes sent at `t`, then
  /// `rate` bps until the next piece (or the anchor).
  struct Piece {
    SimTime t;
    double x = 0.0;
    double rate = 0.0;
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
    std::uint64_t limit = kNoLimit;
    SimTime last_advance = SimTime::zero();
    /// Earlier pieces, kept while they cover the last latency.
    std::deque<Piece> past;
    std::deque<Marker> markers;   ///< transmit markers, by offset
    std::deque<Marker> arrivals;  ///< arrival markers, by offset
    sim::EventId marker_event{};
    sim::EventId arrival_event{};
    sim::EventId ramp_event{};
    /// Splice caps (bps), recomputed by every solve.
    double supply_cap = 0.0;
    double backpressure_cap = 0.0;
    // Water-fill scratch (valid only during solve()).
    double solve_rate = 0.0;
    bool solve_fixed = false;
    bool solve_due = false;  ///< fixed at the end of this round
  };

  struct LinkState {
    double capacity = 0.0;   ///< raw bps (payload goodput)
    double loss = 0.0;
    double effective = 0.0;  ///< capacity * (1 - loss)
    // Water-fill scratch.
    double solve_residual = 0.0;
    std::uint32_t solve_unfixed = 0;
  };

  enum SpliceEvent : std::uint8_t {
    kFill = 1,     ///< the buffer reaches its capacity
    kCatchUp = 2,  ///< the child reaches its supply
    kSupply = 4,   ///< an upstream rate change reaches a caught-up child
  };

  struct SpliceState {
    FluidFlowId up = kInvalidFluidFlow;
    FluidFlowId child = kInvalidFluidFlow;
    double up_base = 0.0;
    double child_base = 0.0;
    double capacity = 0.0;
    bool live = true;
    bool full = false;
    bool caught_up = false;
    SimTime full_since = SimTime::zero();
    SimTime full_time = SimTime::zero();
    double peak_level = 0.0;
    sim::EventId event{};
    SimTime event_at = SimTime::zero();
    std::uint8_t event_kind = 0;
  };

  [[nodiscard]] FlowState* find(FluidFlowId id);
  [[nodiscard]] const FlowState* find(FluidFlowId id) const;
  /// Any flow ever started, ended ones included.
  [[nodiscard]] const FlowState& state(FluidFlowId id) const {
    return flows_[id - 1];
  }

  [[nodiscard]] double compute_steady_cap(const FluidFlowSpec& spec) const;
  [[nodiscard]] double demand_cap(const FlowState& f) const;
  /// Offset the flow may not pass: min(offered, limit).
  [[nodiscard]] static double drain_point(const FlowState& f);
  /// Bytes sent by `t` >= last_advance: linear from the anchor.
  [[nodiscard]] double progress_at(const FlowState& f, SimTime t) const;
  [[nodiscard]] double progress(const FlowState& f) const {
    return progress_at(f, sim_.now());
  }
  /// Bytes sent by any `t` the kept trajectory covers.
  [[nodiscard]] double x_at(const FlowState& f, SimTime t) const;
  /// Sending rate at `t` (0 where the flow was idle or held at its drain
  /// point).
  [[nodiscard]] double rate_at(const FlowState& f, SimTime t) const;
  /// When the flow sent (or, at its current rate, will send) byte
  /// `offset`; nullopt while it is stalled short of it.
  [[nodiscard]] std::optional<SimTime> time_at_offset(const FlowState& f,
                                                      double offset) const;
  [[nodiscard]] std::uint64_t backlog(const FlowState& f) const;
  /// Move the anchor to now (call before the rate changes), keeping the
  /// piece it ends while arrivals still need it.
  void reanchor(FlowState& f);

  /// Max-min water-fill over every active flow with the splices' caps;
  /// flows whose rate changed are re-anchored and their markers and splice
  /// events rescheduled.
  void solve();
  void water_fill();
  /// Caps known before the water-fill: a caught-up child's supply rate,
  /// and 0 for the upstream of a full buffer that nothing drains.
  void set_splice_caps();
  /// Clear full / caught-up flags whose cap no longer binds.
  void settle_splices();
  void schedule_splice(FluidSpliceId id, SpliceState& s);
  void on_splice_event(FluidSpliceId id);
  /// When the child's transmitted payload reaches its supply, at the
  /// current rates; nullopt when it does not before the child drains.
  [[nodiscard]] std::optional<SimTime> catch_up_time(
      const SpliceState& s) const;
  /// The next instant an upstream rate change reaches the child.
  [[nodiscard]] std::optional<SimTime> next_supply_change(
      const SpliceState& s) const;
  [[nodiscard]] double supply_rate(const SpliceState& s) const;
  [[nodiscard]] double splice_level(const SpliceState& s) const;
  [[nodiscard]] double child_payload_sent(const SpliceState& s) const;

  void activate(FluidFlowId id, FlowState& f);
  void deactivate(FlowState& f);
  void schedule_marker(FluidFlowId id, FlowState& f);
  void on_marker(FluidFlowId id);
  void schedule_arrival(FluidFlowId id, FlowState& f);
  void on_arrival(FluidFlowId id);
  void arm_ramp(FluidFlowId id, FlowState& f);
  void on_ramp(FluidFlowId id);

  sim::Simulator& sim_;
  std::vector<LinkState> links_;
  std::vector<FlowState> flows_;  ///< flows_[id - 1], in start order
  std::vector<SpliceState> splices_;  ///< splices_[id - 1]
  std::vector<FluidSpliceId> live_;   ///< live splices, in creation order
  std::size_t active_count_ = 0;
};

}  // namespace lsl::flow
