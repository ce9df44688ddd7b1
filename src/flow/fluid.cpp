#include "flow/fluid.hpp"

#include <algorithm>
#include <cmath>
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
  links_.push_back(std::move(link));
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
  for (const FluidFlowId fid : link.flows) {
    FlowState& f = flows_[index_of(fid)];
    f.steady_cap = compute_steady_cap(f.spec);
    if (f.ramping && f.ramp_cap >= f.steady_cap) {
      f.ramping = false;
    }
  }
  const std::vector<FluidLinkId> seed{id};
  resolve(kInvalidFluidFlow, seed);
}

double FluidNetwork::link_capacity_bps(FluidLinkId id) const {
  LSL_ASSERT(id < links_.size());
  return links_[id].capacity;
}

FluidFlowId FluidNetwork::start_flow(FluidFlowSpec spec) {
  LSL_ASSERT(spec.rtt > SimTime::zero());
  std::uint32_t index = 0;
  if (!free_flows_.empty()) {
    index = free_flows_.back();
    free_flows_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  FlowState& f = flows_[index];
  f.spec = std::move(spec);
  f.in_use = true;
  f.active = false;
  f.rate = 0.0;
  f.transmitted = 0.0;
  f.offered = 0;
  f.last_advance = sim_.now();
  f.markers.clear();
  f.marker_event = {};
  f.ramp_event = {};
  f.steady_cap = compute_steady_cap(f.spec);
  const double rtt_s = f.spec.rtt.to_seconds();
  const double initial_cap =
      static_cast<double>(f.spec.initial_cwnd_segments) * f.spec.mss * 8.0 /
      rtt_s;
  f.ramping = f.spec.initial_cwnd_segments > 0 && initial_cap < f.steady_cap;
  f.ramp_cap = f.ramping ? initial_cap : f.steady_cap;
  const FluidFlowId id = id_of(index);
  for (const FluidLinkId l : f.spec.path) {
    LSL_ASSERT(l < links_.size());
    links_[l].flows.push_back(id);
  }
  ++stats_.flows_started;
  return id;
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
  const bool was_active = f->active;
  if (was_active) {
    f->active = false;
    --active_count_;
  }
  f->rate = 0.0;
  f->markers.clear();
  std::vector<FluidLinkId> path = std::move(f->spec.path);
  f->spec.path.clear();
  for (const FluidLinkId l : path) {
    auto& flows = links_[l].flows;
    auto it = std::find(flows.begin(), flows.end(), id);
    LSL_ASSERT(it != flows.end());
    *it = flows.back();
    flows.pop_back();
  }
  f->in_use = false;
  ++f->gen;
  free_flows_.push_back(index_of(id));
  if (was_active) {
    resolve(kInvalidFluidFlow, path);
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
  if (f == nullptr) {
    return 0;
  }
  double bytes = f->transmitted;
  if (f->active && f->rate > 0.0) {
    bytes += (sim_.now() - f->last_advance).to_seconds() * f->rate / 8.0;
  }
  bytes = std::min(bytes, static_cast<double>(f->offered));
  return static_cast<std::uint64_t>(bytes);
}

FluidNetwork::FlowState* FluidNetwork::find(FluidFlowId id) {
  if (id == kInvalidFluidFlow) {
    return nullptr;
  }
  const std::uint32_t index = index_of(id);
  if (index >= flows_.size()) {
    return nullptr;
  }
  FlowState& f = flows_[index];
  return (f.in_use && f.gen == gen_of(id)) ? &f : nullptr;
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
  params.mss = spec.mss;
  params.initial_cwnd_segments = spec.initial_cwnd_segments;
  params.cca = spec.cca;
  return steady_rate(params).bits_per_second();
}

double FluidNetwork::demand_cap(const FlowState& f) const {
  return f.ramping ? std::min(f.ramp_cap, f.steady_cap) : f.steady_cap;
}

std::uint64_t FluidNetwork::backlog(const FlowState& f) const {
  const auto sent = static_cast<std::uint64_t>(f.transmitted);
  return f.offered > sent ? f.offered - sent : 0;
}

void FluidNetwork::advance_progress(FlowState& f) {
  const SimTime now = sim_.now();
  if (f.active && f.rate > 0.0 && now > f.last_advance) {
    f.transmitted += (now - f.last_advance).to_seconds() * f.rate / 8.0;
    f.transmitted = std::min(f.transmitted, static_cast<double>(f.offered));
  }
  f.last_advance = now;
}

void FluidNetwork::resolve(FluidFlowId seed_flow,
                           const std::vector<FluidLinkId>& seed_links) {
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  auto push_link = [this](FluidLinkId l) {
    if (links_[l].epoch != epoch_) {
      links_[l].epoch = epoch_;
      comp_links_.push_back(l);
    }
  };
  if (FlowState* f = find(seed_flow); f != nullptr) {
    f->epoch = epoch_;
    if (f->active) {
      comp_flows_.push_back(seed_flow);
    }
    for (const FluidLinkId l : f->spec.path) {
      push_link(l);
    }
  }
  for (const FluidLinkId l : seed_links) {
    push_link(l);
  }
  // BFS over the flows-share-links graph; only active flows couple links.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    for (const FluidFlowId fid : links_[comp_links_[i]].flows) {
      FlowState& f = flows_[index_of(fid)];
      if (!f.active || f.epoch == epoch_) {
        continue;
      }
      f.epoch = epoch_;
      comp_flows_.push_back(fid);
      for (const FluidLinkId l : f.spec.path) {
        push_link(l);
      }
    }
  }
  if (comp_flows_.empty()) {
    return;
  }
  ++stats_.solves;
  stats_.flows_rated += comp_flows_.size();
  for (const FluidFlowId fid : comp_flows_) {
    advance_progress(flows_[index_of(fid)]);
  }
  fill_component();
  for (const FluidFlowId fid : comp_flows_) {
    FlowState& f = flows_[index_of(fid)];
    if (f.rate != f.solve_rate) {
      f.rate = f.solve_rate;
      schedule_marker(fid, f);
    }
  }
}

void FluidNetwork::fill_component() {
  std::size_t unfixed = 0;
  for (const FluidFlowId fid : comp_flows_) {
    FlowState& f = flows_[index_of(fid)];
    f.solve_rate = 0.0;
    f.solve_cap = demand_cap(f);
    f.solve_fixed = f.solve_cap <= 0.0;
    if (!f.solve_fixed) {
      ++unfixed;
    }
  }
  for (const FluidLinkId lid : comp_links_) {
    LinkState& l = links_[lid];
    l.solve_residual = std::max(l.effective, 0.0);
    l.solve_unfixed = 0;
  }
  for (const FluidFlowId fid : comp_flows_) {
    const FlowState& f = flows_[index_of(fid)];
    if (f.solve_fixed) {
      continue;
    }
    for (const FluidLinkId l : f.spec.path) {
      ++links_[l].solve_unfixed;
    }
  }
  auto fix_flow = [this, &unfixed](FlowState& f) {
    f.solve_fixed = true;
    --unfixed;
    for (const FluidLinkId l : f.spec.path) {
      --links_[l].solve_unfixed;
    }
  };
  // Progressive filling: raise every unfixed flow's rate by the largest
  // uniform increment any link or cap allows, then freeze the flows that hit
  // their constraint. Each round freezes at least one flow, so the loop runs
  // at most |component| times.
  while (unfixed > 0) {
    double delta = std::numeric_limits<double>::infinity();
    for (const FluidLinkId lid : comp_links_) {
      const LinkState& l = links_[lid];
      if (l.solve_unfixed > 0) {
        delta = std::min(delta, l.solve_residual / l.solve_unfixed);
      }
    }
    for (const FluidFlowId fid : comp_flows_) {
      const FlowState& f = flows_[index_of(fid)];
      if (!f.solve_fixed) {
        delta = std::min(delta, f.solve_cap - f.solve_rate);
      }
    }
    delta = std::max(delta, 0.0);
    for (const FluidFlowId fid : comp_flows_) {
      FlowState& f = flows_[index_of(fid)];
      if (!f.solve_fixed) {
        f.solve_rate += delta;
      }
    }
    for (const FluidLinkId lid : comp_links_) {
      LinkState& l = links_[lid];
      if (l.solve_unfixed > 0) {
        l.solve_residual =
            std::max(l.solve_residual - delta * l.solve_unfixed, 0.0);
      }
    }
    bool froze = false;
    for (const FluidFlowId fid : comp_flows_) {
      FlowState& f = flows_[index_of(fid)];
      if (!f.solve_fixed &&
          f.solve_rate >= f.solve_cap - 1e-9 * (f.solve_cap + 1.0)) {
        f.solve_rate = f.solve_cap;
        fix_flow(f);
        froze = true;
      }
    }
    for (const FluidLinkId lid : comp_links_) {
      LinkState& l = links_[lid];
      if (l.solve_unfixed == 0 ||
          l.solve_residual > 1e-9 * (l.effective + 1.0)) {
        continue;
      }
      for (const FluidFlowId fid : l.flows) {
        FlowState& f = flows_[index_of(fid)];
        if (f.active && f.epoch == epoch_ && !f.solve_fixed) {
          fix_flow(f);
          froze = true;
        }
      }
    }
    if (!froze) {
      // Numerical stalemate; freeze everything at current rates.
      for (const FluidFlowId fid : comp_flows_) {
        FlowState& f = flows_[index_of(fid)];
        if (!f.solve_fixed) {
          fix_flow(f);
        }
      }
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
  static const std::vector<FluidLinkId> kNoLinks;
  resolve(id, kNoLinks);
}

void FluidNetwork::deactivate(FlowState& f) {
  advance_progress(f);
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
      static_cast<double>(f.markers.front().offset) - f.transmitted;
  if (remaining <= 0.0) {
    f.marker_event = sim_.schedule_after(
        SimTime::zero(), [this, id] { on_marker(id); }, kMarkerTag);
    return;
  }
  if (!f.active || f.rate <= 0.0) {
    return;  // stalled: the next resolve with rate > 0 reschedules
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
  // Snap integration to the marker offset (the event time was computed from
  // the exact rate trajectory; snapping removes float drift).
  f->transmitted =
      std::max(f->transmitted, static_cast<double>(marker.offset));
  f->transmitted = std::min(f->transmitted, static_cast<double>(f->offered));
  f->last_advance = sim_.now();
  ++stats_.markers_fired;
  if (marker.cb) {
    marker.cb();  // may add bytes/markers, or end this flow entirely
  }
  f = find(id);
  if (f == nullptr) {
    return;
  }
  if (f->active && backlog(*f) == 0 && f->markers.empty()) {
    // Out of bytes: release this flow's share to the residual set.
    deactivate(*f);
    resolve(kInvalidFluidFlow, f->spec.path);
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
  static const std::vector<FluidLinkId> kNoLinks;
  resolve(id, kNoLinks);
  f = find(id);
  if (f != nullptr && f->ramping && f->active) {
    arm_ramp(id, *f);
  }
}

double FluidNetwork::max_rate_error_for_test() {
  // Global from-scratch solve: collect every active flow into one "component"
  // (progressive filling over the union is the textbook global algorithm;
  // disjoint components simply never constrain each other).
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  for (std::uint32_t index = 0; index < flows_.size(); ++index) {
    FlowState& f = flows_[index];
    if (!f.in_use || !f.active) {
      continue;
    }
    f.epoch = epoch_;
    comp_flows_.push_back(id_of(index));
    for (const FluidLinkId l : f.spec.path) {
      if (links_[l].epoch != epoch_) {
        links_[l].epoch = epoch_;
        comp_links_.push_back(l);
      }
    }
  }
  fill_component();
  double worst = 0.0;
  for (const FluidFlowId fid : comp_flows_) {
    const FlowState& f = flows_[index_of(fid)];
    worst = std::max(worst, std::abs(f.rate - f.solve_rate));
  }
  return worst;
}

}  // namespace lsl::flow
