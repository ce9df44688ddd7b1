#include "flow/fluid.hpp"

#include <algorithm>
#include <limits>
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

const sim::Tag kMarkerTag{"fluid.marker", sim::Layer::kFlow};
const sim::Tag kRampTag{"fluid.ramp", sim::Layer::kFlow};
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulator& simulator) : sim_(simulator) {}

FluidNetwork::~FluidNetwork() {
  for (FlowState& f : flows_) {
    if (f.marker_event.valid()) {
      sim_.cancel(f.marker_event);
    }
    if (f.ramp_event.valid()) {
      sim_.cancel(f.ramp_event);
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
  if (f->marker_event.valid()) {
    sim_.cancel(f->marker_event);
    f->marker_event = {};
  }
  if (f->ramp_event.valid()) {
    sim_.cancel(f->ramp_event);
    f->ramp_event = {};
  }
  f->in_use = false;
  f->rate = 0.0;
  f->markers.clear();
  if (f->active) {
    f->active = false;
    --active_count_;
    solve();
  }
}

void FluidNetwork::add_bytes(FluidFlowId id, std::uint64_t n) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  f->offered += n;
  if (!f->active && backlog(*f) > 0) {
    activate(id, *f);
  }
}

void FluidNetwork::notify_at(FluidFlowId id, std::uint64_t offset,
                             std::function<void()> cb) {
  FlowState* f = find(id);
  LSL_ASSERT(f != nullptr);
  LSL_ASSERT(f->markers.empty() || f->markers.back().offset <= offset);
  LSL_ASSERT(offset <= f->offered);
  if (static_cast<double>(offset) <= progress(*f)) {
    // Already passed: the marker fires at once, and its snap to `offset`
    // must not drop what the flow sent since the last anchor.
    reanchor(*f);
  }
  f->markers.push_back(Marker{offset, std::move(cb)});
  if (f->markers.size() == 1) {
    schedule_marker(id, *f);
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
  const FlowState* f = find(id);
  return f != nullptr ? static_cast<std::uint64_t>(progress(*f)) : 0;
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

double FluidNetwork::progress(const FlowState& f) const {
  if (!f.active || f.rate <= 0.0) {
    return f.transmitted;
  }
  const double sent =
      f.transmitted + (sim_.now() - f.last_advance).to_seconds() * f.rate / 8.0;
  return std::min(sent, static_cast<double>(f.offered));
}

std::uint64_t FluidNetwork::backlog(const FlowState& f) const {
  const auto sent = static_cast<std::uint64_t>(progress(f));
  return f.offered > sent ? f.offered - sent : 0;
}

void FluidNetwork::reanchor(FlowState& f) {
  f.transmitted = progress(f);
  f.last_advance = sim_.now();
}

void FluidNetwork::solve() {
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
  // Water-filling: a flow's own bottleneck is its demand cap or the fair
  // share (residual over unfixed flows) of its tightest link. Each round fixes
  // every flow whose own bottleneck ties the lowest, at its own bottleneck
  // (an absolute value, not a sum of increments), and takes that rate out of
  // the links it crosses. A flow alone on its links thus gets exactly
  // min(cap, effective capacity), whatever else is active.
  while (unfixed > 0) {
    double lowest = std::numeric_limits<double>::infinity();
    for (FlowState& f : flows_) {
      if (f.solve_fixed) {
        continue;
      }
      f.solve_rate = demand_cap(f);
      for (const FluidLinkId l : f.spec.path) {
        const LinkState& link = links_[l];
        f.solve_rate =
            std::min(f.solve_rate, link.solve_residual / link.solve_unfixed);
      }
      lowest = std::min(lowest, f.solve_rate);
    }
    const double tie = lowest + 1e-9 * (lowest + 1.0);
    for (FlowState& f : flows_) {
      if (f.solve_fixed || f.solve_rate > tie) {
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
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowState& f = flows_[i];
    if (f.active && f.rate != f.solve_rate) {
      reanchor(f);
      f.rate = f.solve_rate;
      schedule_marker(i + 1, f);
    }
  }
}

void FluidNetwork::activate(FluidFlowId id, FlowState& f) {
  f.active = true;
  f.last_advance = sim_.now();
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
}

void FluidNetwork::schedule_marker(FluidFlowId id, FlowState& f) {
  if (f.marker_event.valid()) {
    sim_.cancel(f.marker_event);
    f.marker_event = {};
  }
  if (f.markers.empty()) {
    return;
  }
  const double remaining =
      static_cast<double>(f.markers.front().offset) - progress(f);
  if (remaining <= 0.0) {
    f.marker_event = sim_.schedule_after(
        SimTime::zero(), [this, id] { on_marker(id); }, kMarkerTag);
    return;
  }
  if (!f.active || f.rate <= 0.0) {
    return;  // stalled: the next solve with rate > 0 reschedules
  }
  const SimTime eta = SimTime::from_seconds(remaining * 8.0 / f.rate);
  f.marker_event = sim_.schedule_after(
      eta, [this, id] { on_marker(id); }, kMarkerTag);
}

void FluidNetwork::on_marker(FluidFlowId id) {
  FlowState* f = find(id);
  if (f == nullptr) {
    return;
  }
  f->marker_event = {};
  LSL_ASSERT(!f->markers.empty());
  Marker marker = std::move(f->markers.front());
  f->markers.pop_front();
  // Snap progress to the marker offset (the event time was computed from the
  // linear trajectory; snapping removes float drift).
  f->transmitted =
      std::max(f->transmitted, static_cast<double>(marker.offset));
  f->last_advance = sim_.now();
  if (marker.cb) {
    marker.cb();  // may add bytes/markers, start flows, or end this flow
  }
  f = find(id);
  if (f == nullptr) {
    return;
  }
  if (f->active && backlog(*f) == 0 && f->markers.empty()) {
    // Out of bytes: release this flow's share to the residual set.
    deactivate(*f);
    solve();
  } else if (!f->marker_event.valid()) {
    schedule_marker(id, *f);
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
