#include "sched/route_advisor.hpp"

#include <limits>
#include <utility>

#include "obs/span.hpp"
#include "sched/minimax.hpp"

namespace lsl::sched {

double predicted_remaining_seconds(double minimax_cost,
                                   std::uint64_t remaining_bytes) {
  if (minimax_cost >= kInfiniteCost) {
    return std::numeric_limits<double>::infinity();
  }
  // Cost is seconds per megabit (1/bandwidth); the bottleneck hop sets the
  // pipelined transfer rate.
  const double megabits = static_cast<double>(remaining_bytes) * 8.0 / 1e6;
  return minimax_cost * megabits;
}

RouteAdvisor::RouteAdvisor(RouteAdvisorConfig config) : config_(config) {}

RouteAdvice RouteAdvisor::evaluate(const Scheduler& scheduler,
                                   const SessionView& view, SimTime now,
                                   SimTime routed_at) const {
  AdvisorMetrics* metrics = obs::bundle<AdvisorMetrics>();
  if (metrics != nullptr) {
    metrics->evaluations->inc();
  }
  RouteAdvice advice;

  std::vector<std::size_t> current_path;
  current_path.reserve(view.current_via.size() + 2);
  current_path.push_back(view.src);
  for (const net::NodeId hop : view.current_via) {
    current_path.push_back(hop);
  }
  current_path.push_back(view.dst);
  const double current_cost = minimax_path_cost(
      scheduler.matrix(), current_path, scheduler.options().host_costs);
  advice.current_remaining_s =
      predicted_remaining_seconds(current_cost, view.remaining_bytes);

  const std::vector<std::size_t> excluded(view.blacklist.begin(),
                                          view.blacklist.end());
  const Scheduler::Decision best =
      excluded.empty() ? scheduler.route(view.src, view.dst)
                       : scheduler.route_avoiding(view.src, view.dst, excluded);
  if (best.path.empty()) {
    // Nothing reachable outside the blacklist: the incumbent stands.
    advice.candidate_remaining_s = advice.current_remaining_s;
    if (metrics != nullptr) {
      metrics->kept_current->inc();
    }
    return advice;
  }
  std::vector<net::NodeId> best_via = best.via();
  if (best_via == view.current_via) {
    advice.candidate_remaining_s = advice.current_remaining_s;
    if (metrics != nullptr) {
      metrics->kept_current->inc();
    }
    return advice;
  }
  advice.new_via = std::move(best_via);
  advice.candidate_remaining_s =
      predicted_remaining_seconds(best.scheduled_cost, view.remaining_bytes) +
      config_.switch_penalty.to_seconds();

  if (!(advice.candidate_remaining_s <
        (1.0 - config_.hysteresis) * advice.current_remaining_s)) {
    advice.action = RouteAdvice::Action::kHoldHysteresis;
    if (metrics != nullptr) {
      metrics->held_hysteresis->inc();
    }
    return advice;
  }
  if (now - routed_at < config_.min_dwell) {
    advice.action = RouteAdvice::Action::kHoldDwell;
    if (metrics != nullptr) {
      metrics->held_dwell->inc();
    }
    return advice;
  }
  advice.action = RouteAdvice::Action::kReroute;
  return advice;
}

std::uint64_t RouteAdvisor::watch(SimTime now, ViewFn view, ApplyFn apply) {
  const std::uint64_t token = next_token_++;
  sessions_.emplace(token,
                    Watched{std::move(view), std::move(apply), now});
  return token;
}

void RouteAdvisor::unwatch(std::uint64_t token) { sessions_.erase(token); }

std::size_t RouteAdvisor::on_schedule(const Scheduler& scheduler,
                                      SimTime now) {
  std::size_t applied = 0;
  for (auto& [token, watched] : sessions_) {
    const SessionView view = watched.view();
    if (view.remaining_bytes == 0) {
      continue;  // finished (or nothing left worth moving)
    }
    const RouteAdvice advice =
        evaluate(scheduler, view, now, watched.routed_at);
    bool took = false;
    if (advice.reroute() && watched.apply(advice)) {
      // Dwell restarts only when the session actually took the handover.
      watched.routed_at = now;
      ++emitted_;
      ++applied;
      took = true;
      if (AdvisorMetrics* metrics = obs::bundle<AdvisorMetrics>()) {
        metrics->reroutes_emitted->inc();
      }
    }
    if (obs::SpanRecorder* sr = obs::spans()) {
      const char* rung = "keep";
      switch (advice.action) {
        case RouteAdvice::Action::kKeep:
          break;
        case RouteAdvice::Action::kHoldHysteresis:
          rung = "hold-hysteresis";
          break;
        case RouteAdvice::Action::kHoldDwell:
          rung = "hold-dwell";
          break;
        case RouteAdvice::Action::kReroute:
          rung = took ? "reroute" : "reroute-rejected";
          break;
      }
      sr->instant(now, obs::SpanKind::kRouteDecision, view.session_tag, 0, 0,
                  rung, advice.current_remaining_s);
    }
  }
  return applied;
}

}  // namespace lsl::sched
