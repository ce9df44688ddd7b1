#include "flow/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "flow/tcp_model.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace lsl::flow {

namespace {
/// Stand-in for "no link bottleneck" when deriving a flow's demand cap from
/// steady_rate: link capacities are the solver's job, the cap only carries
/// the window/RTT and Mathis terms.
constexpr double kUncappedBps = 1e18;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
/// Events further out than this never fire in any run (and would overflow
/// SimTime); a rate change re-plans them long before.
constexpr double kHorizonSeconds = 1e9;

const sim::Tag kMarkerTag{"fluid.marker", sim::Layer::kFlow};
const sim::Tag kArrivalTag{"fluid.arrival", sim::Layer::kFlow};
const sim::Tag kRampTag{"fluid.ramp", sim::Layer::kFlow};
const sim::Tag kSpliceTag{"fluid.splice", sim::Layer::kFlow};

/// `rate` below `reference` beyond rounding.
bool below(double rate, double reference) {
  return rate < reference * (1.0 - 1e-9) - 1e-9;
}

/// Insert keeping `markers` sorted by offset, after any equal offsets;
/// returns whether the new marker is the front.
template <typename Marker>
bool insert_sorted(std::deque<Marker>& markers, Marker marker) {
  const auto at = std::upper_bound(
      markers.begin(), markers.end(), marker.offset,
      [](std::uint64_t o, const Marker& m) { return o < m.offset; });
  const bool front = at == markers.begin();
  markers.insert(at, std::move(marker));
  return front;
}

}  // namespace

FluidNetwork::FluidNetwork(sim::Simulator& simulator) : sim_(simulator) {}

FluidNetwork::~FluidNetwork() {
  for (FlowState& f : flows_) {
    for (sim::EventId* e : {&f.marker_event, &f.arrival_event, &f.ramp_event}) {
      if (e->valid()) {
        sim_.cancel(*e);
      }
    }
  }
  for (SpliceState& s : splices_) {
    if (s.event.valid()) {
      sim_.cancel(s.event);
    }
  }
}

FluidLinkId FluidNetwork::add_link(double capacity_bps, double loss_rate) {
  const auto id = static_cast<FluidLinkId>(links_.size());
  LinkState link;
  link.capacity = std::max(capacity_bps, 0.0);
  link.loss = std::clamp(loss_rate, 0.0, 1.0);
  link.effective = link.capacity * (1.0 - link.loss);
  links_.push_back(link);
  return id;
}

void FluidNetwork::set_link(FluidLinkId id, double capacity_bps,
                            double loss_rate) {
  LSL_ASSERT(id < links_.size());
  LinkState& link = links_[id];
  link.capacity = std::max(capacity_bps, 0.0);
  link.loss = std::clamp(loss_rate, 0.0, 1.0);
  link.effective = link.capacity * (1.0 - link.loss);
  // Path loss feeds every crossing flow's Mathis cap, idle flows included
  // (they pick the fresh cap up on their next activation).
  for (FlowState& f : flows_) {
    const auto& path = f.spec.path;
    if (!f.in_use || std::find(path.begin(), path.end(), id) == path.end()) {
      continue;
    }
    f.steady_cap = compute_steady_cap(f.spec);
    if (f.ramping && f.ramp_cap >= f.steady_cap) {
      f.ramping = false;
    }
  }
  solve();
}

double FluidNetwork::link_capacity_bps(FluidLinkId id) const {
  LSL_ASSERT(id < links_.size());
  return links_[id].capacity;
}

FluidFlowId FluidNetwork::start_flow(FluidFlowSpec spec) {
  LSL_ASSERT(spec.rtt > SimTime::zero());
  for (const FluidLinkId l : spec.path) {
    LSL_ASSERT(l < links_.size());
  }
  FlowState& f = flows_.emplace_back();
  f.spec = std::move(spec);
  f.last_advance = sim_.now();
  f.steady_cap = compute_steady_cap(f.spec);
  const double rtt_s = f.spec.rtt.to_seconds();
  const double initial_cap =
      static_cast<double>(f.spec.initial_cwnd_segments) * kMss * 8.0 / rtt_s;
  f.ramping = f.spec.initial_cwnd_segments > 0 && initial_cap < f.steady_cap;
  f.ramp_cap = f.ramping ? initial_cap : f.steady_cap;
  return flows_.size();
}

void FluidNetwork::end_flow(FluidFlowId id) {
  FlowState* f = find(id);
  if (f == nullptr) {
    return;
  }
  for (sim::EventId* e :
       {&f->marker_event, &f->arrival_event, &f->ramp_event}) {
    if (e->valid()) {
      sim_.cancel(*e);
      *e = {};
    }
  }
  reanchor(*f);
  const bool was_active = f->active;
  if (was_active) {
    f->active = false;
    --active_count_;
  }
  f->in_use = false;
  f->rate = 0.0;
  f->markers.clear();
  f->arrivals.clear();
  const auto coupled = std::stable_partition(
      live_.begin(), live_.end(), [this, id](FluidSpliceId sid) {
        const SpliceState& s = splices_[sid - 1];
        return s.up != id && s.child != id;
      });
  const bool uncoupled = coupled != live_.end();
  for (auto it = coupled; it != live_.end(); ++it) {
    SpliceState& s = splices_[*it - 1];
    s.live = false;
    if (s.event.valid()) {
      sim_.cancel(s.event);
      s.event = {};
    }
  }
  live_.erase(coupled, live_.end());
  if (was_active || uncoupled) {
    solve();
  }
}

void FluidNetwork::add_bytes(FluidFlowId id, std::uint64_t n) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  f->offered += n;
  if (!f->active && backlog(*f) > 0) {
    activate(id, *f);
  } else if (f->active) {
    schedule_marker(id, *f);  // the drain point moved
  }
}

void FluidNetwork::set_limit(FluidFlowId id, std::uint64_t offset) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  reanchor(*f);
  f->limit = offset;
  f->transmitted = std::min(f->transmitted, drain_point(*f));
  if (!f->active && backlog(*f) > 0) {
    activate(id, *f);
  } else if (f->active && backlog(*f) == 0) {
    deactivate(*f);
    solve();
  } else if (f->active) {
    schedule_marker(id, *f);
  }
}

void FluidNetwork::notify_at(FluidFlowId id, std::uint64_t offset,
                             std::function<void()> cb) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  LSL_ASSERT(offset <= f->offered);
  if (static_cast<double>(offset) <= progress(*f)) {
    // Already passed: the marker fires at once, and its snap to `offset`
    // must not drop what the flow sent since the last anchor.
    reanchor(*f);
  }
  if (insert_sorted(f->markers, Marker{offset, std::move(cb)})) {
    schedule_marker(id, *f);
  }
}

void FluidNetwork::notify_arrival(FluidFlowId id, std::uint64_t offset,
                                  std::function<void()> cb) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  if (insert_sorted(f->arrivals, Marker{offset, std::move(cb)})) {
    schedule_arrival(id, *f);
  }
}

double FluidNetwork::rate_bps(FluidFlowId id) const {
  const FlowState* f = find(id);
  return f != nullptr ? f->rate : 0.0;
}

double FluidNetwork::cap_bps(FluidFlowId id) const {
  const FlowState* f = find(id);
  return f != nullptr ? demand_cap(*f) : 0.0;
}

std::uint64_t FluidNetwork::transmitted(FluidFlowId id) const {
  if (id == kInvalidFluidFlow || id > flows_.size()) {
    return 0;
  }
  return static_cast<std::uint64_t>(progress(state(id)));
}

std::uint64_t FluidNetwork::arrived(FluidFlowId id) const {
  if (id == kInvalidFluidFlow || id > flows_.size()) {
    return 0;
  }
  const FlowState& f = state(id);
  return static_cast<std::uint64_t>(x_at(f, sim_.now() - f.spec.latency));
}

FluidNetwork::FlowState* FluidNetwork::find(FluidFlowId id) {
  if (id == kInvalidFluidFlow || id > flows_.size()) {
    return nullptr;
  }
  FlowState& f = flows_[id - 1];
  return f.in_use ? &f : nullptr;
}

const FluidNetwork::FlowState* FluidNetwork::find(FluidFlowId id) const {
  return const_cast<FluidNetwork*>(this)->find(id);
}

double FluidNetwork::compute_steady_cap(const FluidFlowSpec& spec) const {
  double through = 1.0;
  for (const FluidLinkId l : spec.path) {
    through *= 1.0 - links_[l].loss;
  }
  ConnectionParams params;
  params.rtt = spec.rtt;
  params.bottleneck = Bandwidth::bps(kUncappedBps);
  params.window_bytes = spec.window_bytes;
  params.loss_rate = 1.0 - through;
  params.cca = spec.cca;
  return steady_rate(params).bits_per_second();
}

double FluidNetwork::demand_cap(const FlowState& f) const {
  return f.ramping ? std::min(f.ramp_cap, f.steady_cap) : f.steady_cap;
}

double FluidNetwork::drain_point(const FlowState& f) {
  return static_cast<double>(std::min(f.offered, f.limit));
}

double FluidNetwork::progress_at(const FlowState& f, SimTime t) const {
  if (!f.active || f.rate <= 0.0) {
    return f.transmitted;
  }
  const double sent =
      f.transmitted + (t - f.last_advance).to_seconds() * f.rate / 8.0;
  return std::min(sent, drain_point(f));
}

double FluidNetwork::x_at(const FlowState& f, SimTime t) const {
  if (t >= f.last_advance) {
    return progress_at(f, t);
  }
  double next_x = f.transmitted;
  for (auto it = f.past.rbegin(); it != f.past.rend(); ++it) {
    if (it->t <= t) {
      return std::min(it->x + (t - it->t).to_seconds() * it->rate / 8.0,
                      next_x);
    }
    next_x = it->x;
  }
  return next_x;  // before the flow's first piece
}

double FluidNetwork::rate_at(const FlowState& f, SimTime t) const {
  if (t >= f.last_advance) {
    return f.active ? f.rate : 0.0;
  }
  for (auto it = f.past.rbegin(); it != f.past.rend(); ++it) {
    if (it->t <= t) {
      return it->rate;
    }
  }
  return 0.0;
}

std::optional<SimTime> FluidNetwork::time_at_offset(const FlowState& f,
                                                    double offset) const {
  if (offset <= f.transmitted) {
    SimTime next_t = f.last_advance;
    for (auto it = f.past.rbegin(); it != f.past.rend(); ++it) {
      if (it->x <= offset) {
        if (offset <= it->x) {
          return it->t;
        }
        if (it->rate <= 0.0) {
          return next_t;
        }
        return std::min(
            it->t + SimTime::from_seconds((offset - it->x) * 8.0 / it->rate),
            next_t);
      }
      next_t = it->t;
    }
    return next_t;  // sent before the kept trajectory: long arrived
  }
  if (!f.active || f.rate <= 0.0 || offset > drain_point(f)) {
    return std::nullopt;
  }
  const double dt = (offset - f.transmitted) * 8.0 / f.rate;
  if (dt > kHorizonSeconds) {
    return std::nullopt;
  }
  return f.last_advance + SimTime::from_seconds(dt);
}

std::uint64_t FluidNetwork::backlog(const FlowState& f) const {
  const auto sent = static_cast<std::uint64_t>(progress(f));
  const auto end = static_cast<std::uint64_t>(drain_point(f));
  return end > sent ? end - sent : 0;
}

void FluidNetwork::reanchor(FlowState& f) {
  const SimTime now = sim_.now();
  const double x = progress(f);
  if (f.spec.latency > SimTime::zero() && now > f.last_advance) {
    // Arrivals read the trajectory one latency back: keep the piece that
    // ends here, and drop pieces that ended before the horizon.
    f.past.push_back(Piece{f.last_advance, f.transmitted,
                           f.active ? f.rate : 0.0});
    const SimTime horizon = now - f.spec.latency;
    while (f.past.size() >= 2 && f.past[1].t <= horizon) {
      f.past.pop_front();
    }
  }
  f.transmitted = x;
  f.last_advance = now;
}

void FluidNetwork::solve() {
  set_splice_caps();
  water_fill();
  settle_splices();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowState& f = flows_[i];
    if (f.active && f.rate != f.solve_rate) {
      reanchor(f);
      f.rate = f.solve_rate;
      schedule_marker(i + 1, f);
      if (!f.arrivals.empty() &&
          static_cast<double>(f.arrivals.front().offset) > f.transmitted) {
        schedule_arrival(i + 1, f);  // not yet sent: its time moved
      }
    }
  }
  for (const FluidSpliceId id : live_) {
    schedule_splice(id, splices_[id - 1]);
  }
}

void FluidNetwork::water_fill() {
  for (LinkState& link : links_) {
    link.solve_residual = link.effective;
    link.solve_unfixed = 0;
  }
  std::size_t unfixed = 0;
  for (FlowState& f : flows_) {
    f.solve_fixed = !f.active;
    if (f.active) {
      ++unfixed;
      for (const FluidLinkId l : f.spec.path) {
        ++links_[l].solve_unfixed;
      }
    }
  }
  // Water-filling: a flow's own bottleneck is its cap (demand and splice
  // caps) or the fair share (residual over unfixed flows) of its tightest
  // link. Each round fixes every flow whose own bottleneck ties the lowest,
  // at its own bottleneck (an absolute value, not a sum of increments), and
  // takes that rate out of the links it crosses. A flow alone on its links
  // thus gets exactly min(cap, effective capacity), whatever else is active.
  //
  // A full splice passes its child's rate upstream, child-first: once the
  // child is fixed its upstream is capped at the child's rate, and an
  // upstream whose child is fixed in the same round waits a round for that
  // cap. A fixed rate never falls, so one water-fill settles every chain,
  // shared links included, in at most one round per active flow.
  while (unfixed > 0) {
    double lowest = kInfinity;
    for (FlowState& f : flows_) {
      if (f.solve_fixed) {
        continue;
      }
      f.solve_rate =
          std::min({demand_cap(f), f.supply_cap, f.backpressure_cap});
      for (const FluidLinkId l : f.spec.path) {
        const LinkState& link = links_[l];
        f.solve_rate =
            std::min(f.solve_rate, link.solve_residual / link.solve_unfixed);
      }
      lowest = std::min(lowest, f.solve_rate);
    }
    const double tie = lowest + 1e-9 * (lowest + 1.0);
    for (FlowState& f : flows_) {
      f.solve_due = !f.solve_fixed && f.solve_rate <= tie;
    }
    for (const FluidSpliceId id : live_) {
      const SpliceState& s = splices_[id - 1];
      if (!s.full || s.child == kInvalidFluidFlow) {
        continue;
      }
      const FlowState& child = flows_[s.child - 1];
      if (!child.solve_fixed && child.solve_rate <= tie) {
        flows_[s.up - 1].solve_due = false;  // waits for its child's rate
      }
    }
    const std::size_t before = unfixed;
    for (FlowState& f : flows_) {
      if (!f.solve_due) {
        continue;
      }
      f.solve_fixed = true;
      --unfixed;
      for (const FluidLinkId l : f.spec.path) {
        LinkState& link = links_[l];
        link.solve_residual = std::max(link.solve_residual - f.solve_rate, 0.0);
        --link.solve_unfixed;
      }
    }
    LSL_ASSERT_MSG(unfixed < before, "full splices form a cycle");
    for (const FluidSpliceId id : live_) {
      const SpliceState& s = splices_[id - 1];
      if (!s.full || s.child == kInvalidFluidFlow) {
        continue;
      }
      const FlowState& child = flows_[s.child - 1];
      FlowState& up = flows_[s.up - 1];
      if (child.active && child.solve_fixed) {
        up.backpressure_cap = std::min(up.backpressure_cap, child.solve_rate);
      }
    }
  }
}

void FluidNetwork::set_splice_caps() {
  for (FlowState& f : flows_) {
    f.supply_cap = kInfinity;
    f.backpressure_cap = kInfinity;
  }
  for (const FluidSpliceId id : live_) {
    const SpliceState& s = splices_[id - 1];
    const FlowState* child =
        s.child != kInvalidFluidFlow ? &flows_[s.child - 1] : nullptr;
    if (s.full && (child == nullptr || !child->active)) {
      flows_[s.up - 1].backpressure_cap = 0.0;  // nothing drains the buffer
    }
    if (child != nullptr && s.caught_up) {
      flows_[s.child - 1].supply_cap =
          std::min(child->supply_cap, supply_rate(s));
    }
  }
}

void FluidNetwork::settle_splices() {
  const SimTime now = sim_.now();
  for (const FluidSpliceId id : live_) {
    SpliceState& s = splices_[id - 1];
    const FlowState* child =
        s.child != kInvalidFluidFlow ? &flows_[s.child - 1] : nullptr;
    const double child_rate =
        child != nullptr && child->active ? child->solve_rate : 0.0;
    if (s.full) {
      const FlowState& up = flows_[s.up - 1];
      const double up_rate = up.active ? up.solve_rate : 0.0;
      if (below(up_rate, child_rate)) {
        s.full = false;  // the upstream runs slower: the level falls
        s.full_time += now - s.full_since;
      }
    }
    if (s.caught_up && child != nullptr &&
        below(child_rate, supply_rate(s))) {
      s.caught_up = false;  // the child runs slower: it falls behind
    }
  }
}

double FluidNetwork::supply_rate(const SpliceState& s) const {
  const FlowState& up = flows_[s.up - 1];
  return rate_at(up, sim_.now() - up.spec.latency);
}

double FluidNetwork::child_payload_sent(const SpliceState& s) const {
  if (s.child == kInvalidFluidFlow) {
    return 0.0;
  }
  return std::max(progress(flows_[s.child - 1]) - s.child_base, 0.0);
}

double FluidNetwork::splice_level(const SpliceState& s) const {
  return progress(flows_[s.up - 1]) - s.up_base - child_payload_sent(s);
}

std::optional<SimTime> FluidNetwork::catch_up_time(
    const SpliceState& s) const {
  const FlowState& child = flows_[s.child - 1];
  if (!child.active || child.rate <= 0.0) {
    return std::nullopt;
  }
  const FlowState& up = flows_[s.up - 1];
  const SimTime now = sim_.now();
  const SimTime d = up.spec.latency;
  const double child_rate = child.rate;  // bps
  const double sent0 = child_payload_sent(s);
  const double child_total = drain_point(child) - s.child_base;
  const double supply_total = drain_point(up) - s.up_base;

  // The supply is the upstream's trajectory, delayed by d: its kept pieces,
  // then the anchor's piece, which runs on at the current rate.
  const std::size_t pieces = up.past.size() + 1;
  const auto piece = [&up](std::size_t k) {
    return k < up.past.size()
               ? up.past[k]
               : Piece{up.last_advance, up.transmitted,
                       up.active ? up.rate : 0.0};
  };
  std::optional<SimTime> best;
  for (std::size_t k = 0; k < pieces; ++k) {
    const Piece p = piece(k);
    const bool last = k + 1 == pieces;
    const Piece next = last ? p : piece(k + 1);
    if (!last && next.t + d <= now) {
      continue;
    }
    const SimTime start = std::max(now, p.t + d);
    double supply =
        p.x + (start - d - p.t).to_seconds() * p.rate / 8.0 - s.up_base;
    if (!last) {
      supply = std::min(supply, next.x - s.up_base);
    }
    const double sent =
        sent0 + (start - now).to_seconds() * child_rate / 8.0;
    const double gap = supply - sent;
    const double closing = (child_rate - p.rate) / 8.0;  // bytes/s
    if (gap <= 0.0) {
      if (closing > 0.0) {
        best = start;
        break;
      }
      continue;  // level with its supply but slower: it falls behind
    }
    if (closing > 0.0 && gap / closing < kHorizonSeconds) {
      const SimTime at = start + SimTime::from_seconds(gap / closing);
      if (last || at < next.t + d) {
        best = at;
        break;
      }
    }
  }
  // The supply stops at the upstream's drain point; the child catches up
  // there unless that is where it drains itself.
  if (supply_total < child_total) {
    const double dt = (supply_total - sent0) * 8.0 / child_rate;
    if (dt < kHorizonSeconds) {
      const SimTime at = now + SimTime::from_seconds(std::max(dt, 0.0));
      best = best.has_value() ? std::min(*best, at) : at;
    }
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  const double sent_then =
      sent0 + (*best - now).to_seconds() * child_rate / 8.0;
  if (sent_then >= child_total) {
    return std::nullopt;  // the child drains first
  }
  return best;
}

std::optional<SimTime> FluidNetwork::next_supply_change(
    const SpliceState& s) const {
  const FlowState& up = flows_[s.up - 1];
  const SimTime now = sim_.now();
  const SimTime d = up.spec.latency;
  // Walk the pieces oldest first; the first one that starts after now - d
  // with a rate unlike its predecessor's reaches the child at start + d.
  double previous = -1.0;
  for (const Piece& p : up.past) {
    if (p.t + d > now && p.rate != previous) {
      return p.t + d;
    }
    previous = p.rate;
  }
  const double current = up.active ? up.rate : 0.0;
  if (up.last_advance + d > now && current != previous) {
    return up.last_advance + d;
  }
  return std::nullopt;
}

void FluidNetwork::schedule_splice(FluidSpliceId id, SpliceState& s) {
  const SimTime now = sim_.now();
  const double level = splice_level(s);
  s.peak_level = std::max(s.peak_level, level);

  std::optional<SimTime> best;
  std::uint8_t kind = 0;
  const auto consider = [&](std::optional<SimTime> at, SpliceEvent what) {
    if (!at.has_value()) {
      return;
    }
    if (!best.has_value() || *at < *best) {
      best = at;
      kind = what;
    } else if (*at == *best) {
      kind |= what;
    }
  };

  const FlowState& up = flows_[s.up - 1];
  const FlowState* child =
      s.child != kInvalidFluidFlow ? &flows_[s.child - 1] : nullptr;
  if (!s.full) {
    const double up_rate = up.active ? up.rate : 0.0;
    const double child_rate =
        child != nullptr && child->active ? child->rate : 0.0;
    if (up_rate > child_rate) {
      const double room = s.capacity - level;
      const double dt = std::max(room, 0.0) * 8.0 / (up_rate - child_rate);
      // The upstream must still have the bytes to send when it gets there.
      const double up_left = drain_point(up) - progress(up);
      if (dt < kHorizonSeconds && dt * up_rate / 8.0 <= up_left) {
        consider(now + SimTime::from_seconds(dt), kFill);
      }
    }
  }
  if (child != nullptr) {
    if (!s.caught_up) {
      consider(catch_up_time(s), kCatchUp);
    } else {
      consider(next_supply_change(s), kSupply);
    }
  }

  if (s.event.valid() && best.has_value() && *best == s.event_at &&
      kind == s.event_kind) {
    return;
  }
  if (s.event.valid()) {
    sim_.cancel(s.event);
    s.event = {};
  }
  if (!best.has_value()) {
    return;
  }
  s.event_at = std::max(*best, now);
  s.event_kind = kind;
  s.event = sim_.schedule_at(
      s.event_at, [this, id] { on_splice_event(id); }, kSpliceTag);
}

void FluidNetwork::on_splice_event(FluidSpliceId id) {
  SpliceState& s = splices_[id - 1];
  s.event = {};
  if (!s.live) {
    return;
  }
  if ((s.event_kind & kFill) != 0 && !s.full) {
    s.full = true;
    s.full_since = sim_.now();
  }
  if ((s.event_kind & kCatchUp) != 0) {
    s.caught_up = true;
  }
  solve();  // a supply change only moves the caught-up child's cap
}

FluidSpliceId FluidNetwork::splice(FluidFlowId upstream,
                                   std::uint64_t upstream_base,
                                   std::uint64_t capacity) {
  LSL_ASSERT(find(upstream) != nullptr);
  SpliceState& s = splices_.emplace_back();
  s.up = upstream;
  s.up_base = static_cast<double>(upstream_base);
  s.capacity = static_cast<double>(capacity);
  live_.push_back(splices_.size());
  solve();
  return splices_.size();
}

void FluidNetwork::attach_child(FluidSpliceId id, FluidFlowId child,
                                std::uint64_t child_base) {
  LSL_ASSERT(id != kInvalidSplice && id <= splices_.size());
  SpliceState& s = splices_[id - 1];
  if (!s.live || find(child) == nullptr) {
    return;
  }
  s.child = child;
  s.child_base = static_cast<double>(child_base);
  const FlowState& up = flows_[s.up - 1];
  const double supply =
      x_at(up, sim_.now() - up.spec.latency) - s.up_base;
  s.caught_up = supply <= child_payload_sent(s);
  solve();
}

void FluidNetwork::end_splice(FluidSpliceId id) {
  if (id == kInvalidSplice || id > splices_.size()) {
    return;
  }
  SpliceState& s = splices_[id - 1];
  if (!s.live) {
    return;
  }
  s.peak_level = std::max(s.peak_level, splice_level(s));
  s.live = false;
  live_.erase(std::find(live_.begin(), live_.end(), id));
  if (s.full) {
    s.full = false;
    s.full_time += sim_.now() - s.full_since;
  }
  if (s.event.valid()) {
    sim_.cancel(s.event);
    s.event = {};
  }
  solve();
}

FluidNetwork::SpliceStats FluidNetwork::splice_stats(FluidSpliceId id) const {
  SpliceStats stats;
  if (id == kInvalidSplice || id > splices_.size()) {
    return stats;
  }
  const SpliceState& s = splices_[id - 1];
  double peak = s.peak_level;
  stats.full_time = s.full_time;
  if (s.live) {
    peak = std::max(peak, splice_level(s));
    if (s.full) {
      stats.full_time += sim_.now() - s.full_since;
    }
  }
  stats.peak_level = static_cast<std::uint64_t>(std::max(peak, 0.0));
  return stats;
}

std::size_t FluidNetwork::active_splices() const { return live_.size(); }

void FluidNetwork::activate(FluidFlowId id, FlowState& f) {
  reanchor(f);  // records the idle piece
  f.active = true;
  ++active_count_;
  if (f.ramping && !f.ramp_event.valid()) {
    arm_ramp(id, f);
  }
  solve();
}

void FluidNetwork::deactivate(FlowState& f) {
  reanchor(f);
  f.active = false;
  f.rate = 0.0;
  --active_count_;
  if (f.marker_event.valid()) {
    sim_.cancel(f.marker_event);
    f.marker_event = {};
  }
  if (f.ramp_event.valid()) {
    sim_.cancel(f.ramp_event);
    f.ramp_event = {};
  }
  if (f.arrival_event.valid() && !f.arrivals.empty() &&
      static_cast<double>(f.arrivals.front().offset) > f.transmitted) {
    sim_.cancel(f.arrival_event);  // not sent: no arrival time until it is
    f.arrival_event = {};
  }
}

void FluidNetwork::schedule_marker(FluidFlowId id, FlowState& f) {
  if (f.marker_event.valid()) {
    sim_.cancel(f.marker_event);
    f.marker_event = {};
  }
  // The next transmit boundary: the front marker, or the drain point where
  // an active flow goes idle.
  double target = f.active ? drain_point(f) : kInfinity;
  if (!f.markers.empty()) {
    target = std::min(target, static_cast<double>(f.markers.front().offset));
  }
  if (target == kInfinity) {
    return;
  }
  const double remaining = target - progress(f);
  if (remaining <= 0.0) {
    f.marker_event = sim_.schedule_after(
        SimTime::zero(), [this, id] { on_marker(id); }, kMarkerTag);
    return;
  }
  if (!f.active || f.rate <= 0.0) {
    return;  // stalled: the next solve with rate > 0 reschedules
  }
  const double dt = remaining * 8.0 / f.rate;
  if (dt > kHorizonSeconds) {
    return;
  }
  f.marker_event = sim_.schedule_after(
      SimTime::from_seconds(dt), [this, id] { on_marker(id); }, kMarkerTag);
}

void FluidNetwork::on_marker(FluidFlowId id) {
  FlowState* f = find(id);
  if (f == nullptr) {
    return;
  }
  f->marker_event = {};
  double target = f->active ? drain_point(*f) : kInfinity;
  if (!f->markers.empty()) {
    target = std::min(target, static_cast<double>(f->markers.front().offset));
  }
  // Snap progress to the boundary this event was planned for (its time
  // came from the linear trajectory; snapping removes float drift).
  reanchor(*f);
  if (target != kInfinity) {
    f->transmitted = std::max(f->transmitted, target);
  }
  while (!f->markers.empty() &&
         static_cast<double>(f->markers.front().offset) <= f->transmitted) {
    Marker marker = std::move(f->markers.front());
    f->markers.pop_front();
    if (marker.cb) {
      marker.cb();  // may add bytes/markers, start flows, or end this flow
    }
    f = find(id);
    if (f == nullptr) {
      return;
    }
  }
  if (f->active && backlog(*f) == 0) {
    // Out of bytes: release this flow's share to the residual set.
    deactivate(*f);
    solve();
  } else if (!f->marker_event.valid()) {
    schedule_marker(id, *f);
  }
}

void FluidNetwork::schedule_arrival(FluidFlowId id, FlowState& f) {
  if (f.arrival_event.valid()) {
    sim_.cancel(f.arrival_event);
    f.arrival_event = {};
  }
  if (f.arrivals.empty()) {
    return;
  }
  const auto sent_at =
      time_at_offset(f, static_cast<double>(f.arrivals.front().offset));
  if (!sent_at.has_value()) {
    return;  // not sent yet and stalled: a later solve reschedules
  }
  const SimTime at = std::max(*sent_at + f.spec.latency, sim_.now());
  f.arrival_event =
      sim_.schedule_at(at, [this, id] { on_arrival(id); }, kArrivalTag);
}

void FluidNetwork::on_arrival(FluidFlowId id) {
  FlowState* f = find(id);
  if (f == nullptr) {
    return;
  }
  f->arrival_event = {};
  // The event was planned for the front marker; every marker the
  // trajectory has delivered by now is due with it.
  const double due =
      std::max(x_at(*f, sim_.now() - f->spec.latency),
               static_cast<double>(f->arrivals.front().offset));
  while (!f->arrivals.empty() &&
         static_cast<double>(f->arrivals.front().offset) <= due) {
    Marker marker = std::move(f->arrivals.front());
    f->arrivals.pop_front();
    if (marker.cb) {
      marker.cb();
    }
    f = find(id);
    if (f == nullptr) {
      return;
    }
  }
  if (!f->arrival_event.valid()) {
    schedule_arrival(id, *f);
  }
}

void FluidNetwork::arm_ramp(FluidFlowId id, FlowState& f) {
  f.ramp_event = sim_.schedule_after(
      f.spec.rtt, [this, id] { on_ramp(id); }, kRampTag);
}

void FluidNetwork::on_ramp(FluidFlowId id) {
  FlowState* f = find(id);
  if (f == nullptr) {
    return;
  }
  f->ramp_event = {};
  if (!f->ramping || !f->active) {
    return;
  }
  f->ramp_cap *= 2.0;
  if (f->ramp_cap >= f->steady_cap) {
    f->ramp_cap = f->steady_cap;
    f->ramping = false;
  }
  solve();  // runs no callbacks, so `f` stays valid
  if (f->ramping) {
    arm_ramp(id, *f);
  }
}

}  // namespace lsl::flow
