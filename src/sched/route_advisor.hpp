// Mid-transfer adaptive rerouting (paper section 4.2, taken online).
//
// The MMP schedule is computed from NWS forecasts at connect time, but the
// minimax bottleneck is exactly what drifting background traffic perturbs: a
// route that was optimal when the session started can be dominated
// mid-transfer by a degraded hop. The RouteAdvisor watches live sessions
// and, on every rescheduler tick, re-evaluates each one against the current
// scheduler's cached MMP trees (one route() per session keeps this cheap):
// when the predicted remaining-transfer time on the best available path
// beats the current path by a hysteresis margin -- and the session has dwelt
// on its route long enough -- it emits a reroute which the session layer
// applies as a planned handover (drain to the committed offset, resume on
// the new path; see lsl::session::ReliableTransfer::reroute_to).
//
// Determinism contract: advice is a pure function of the scheduler state,
// the session view, and sim time. No wall clock, no private randomness --
// sweeps stay bitwise-identical across --jobs (docs/performance.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "util/time.hpp"

namespace lsl::sched {

/// Process-wide advisor instruments in the global metrics registry.
struct AdvisorMetrics {
  explicit AdvisorMetrics(obs::Registry& reg)
      : evaluations(&reg.counter("sched.advisor.evaluations")),
        reroutes_emitted(&reg.counter("sched.advisor.reroutes_emitted")),
        kept_current(&reg.counter("sched.advisor.kept_current")),
        held_hysteresis(&reg.counter("sched.advisor.held_hysteresis")),
        held_dwell(&reg.counter("sched.advisor.held_dwell")) {}

  obs::Counter* evaluations;
  obs::Counter* reroutes_emitted;
  obs::Counter* kept_current;
  obs::Counter* held_hysteresis;
  obs::Counter* held_dwell;
};

struct RouteAdvisorConfig {
  /// Reroute only when the candidate's predicted remaining time undercuts
  /// the current path's by this fraction (default ~15%): inside the margin
  /// the incumbent stands, so forecast noise cannot flap the route.
  double hysteresis = 0.15;
  /// Minimum time a session keeps a route before the advisor may move it
  /// again (measured from watch time or the last emitted reroute).
  SimTime min_dwell = SimTime::seconds(10);
  /// Fixed cost charged to a candidate path for the handover itself (drain
  /// the in-flight segment, probe the sink's offset, reconnect). Keeps
  /// nearly-finished transfers from switching for a win smaller than the
  /// splice.
  SimTime switch_penalty = SimTime::seconds(1);
};

/// What the advisor needs to know about a live session at evaluation time.
struct SessionView {
  std::size_t src = 0;
  std::size_t dst = 0;
  /// Relay depots of the active attempt, in order (empty = direct path).
  std::vector<net::NodeId> current_via;
  /// Bytes the sink has not committed yet (the part a reroute can move).
  std::uint64_t remaining_bytes = 0;
  /// Depots failure recovery has blacklisted; never reroute targets.
  std::vector<net::NodeId> blacklist;
  /// Session correlation hash (SessionIdHash) for span emission; 0 tags the
  /// advisor's verdict as a global context event.
  std::uint64_t session_tag = 0;
};

/// One evaluation's outcome, with the inputs that justified it.
struct RouteAdvice {
  enum class Action : std::uint8_t {
    kKeep,            ///< best path is the current path
    kHoldHysteresis,  ///< better path exists, inside the margin
    kHoldDwell,       ///< outside the margin, but the session must dwell
    kReroute,         ///< switch to new_via
  };

  Action action = Action::kKeep;
  /// Relay hops of the recommended path (meaningful when kReroute).
  std::vector<net::NodeId> new_via;
  /// Predicted remaining seconds on the current path and on the best
  /// candidate (candidate includes the switch penalty).
  double current_remaining_s = 0.0;
  double candidate_remaining_s = 0.0;

  [[nodiscard]] bool reroute() const { return action == Action::kReroute; }
};

/// Predicted remaining transfer time over a path with the given minimax
/// cost (seconds per megabit): pipelined store-and-forward throughput is
/// set by the bottleneck hop, so time = cost * remaining megabits.
/// Infinite cost (unreachable) predicts infinity.
[[nodiscard]] double predicted_remaining_seconds(double minimax_cost,
                                                 std::uint64_t remaining_bytes);

class RouteAdvisor {
 public:
  /// Snapshot of a watched session, refreshed on every tick. Sessions that
  /// have finished report zero remaining bytes (the advisor skips them).
  using ViewFn = std::function<SessionView()>;
  /// Apply an emitted reroute. Returning false means the session could not
  /// take the handover (already draining, hop blacklisted since the view
  /// was built); the advisor keeps the old dwell clock so it may retry on
  /// the next tick.
  using ApplyFn = std::function<bool(const RouteAdvice&)>;

  explicit RouteAdvisor(RouteAdvisorConfig config = {});

  /// The decision rule, stateless: evaluate `view` against `scheduler` at
  /// `now`, where `routed_at` is when the session last changed route.
  /// Exposed for tests and benchmarks; on_schedule drives it for every
  /// watched session.
  [[nodiscard]] RouteAdvice evaluate(const Scheduler& scheduler,
                                     const SessionView& view, SimTime now,
                                     SimTime routed_at) const;

  /// Register a live session; returns a token for unwatch(). `now` starts
  /// the dwell clock.
  std::uint64_t watch(SimTime now, ViewFn view, ApplyFn apply);
  void unwatch(std::uint64_t token);
  [[nodiscard]] std::size_t watched() const { return sessions_.size(); }

  /// Rescheduler tick hook: re-evaluate every watched session against the
  /// fresh scheduler. Sessions are visited in watch order (deterministic).
  /// Returns the number of reroutes applied.
  std::size_t on_schedule(const Scheduler& scheduler, SimTime now);

  [[nodiscard]] const RouteAdvisorConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t reroutes_emitted() const { return emitted_; }

 private:
  struct Watched {
    ViewFn view;
    ApplyFn apply;
    SimTime routed_at;  ///< watch time, bumped on each applied reroute
  };

  RouteAdvisorConfig config_;
  std::map<std::uint64_t, Watched> sessions_;  ///< ordered: deterministic
  std::uint64_t next_token_ = 1;
  std::uint64_t emitted_ = 0;
};

}  // namespace lsl::sched
