#include "fault/injector.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "util/log.hpp"

namespace lsl::fault {

namespace {

const sim::Tag kApplyTag{"fault.apply", sim::Layer::kFault};
const sim::Tag kHealTag{"fault.heal", sim::Layer::kFault};

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, net::Topology& topology)
    : sim_(sim), topo_(topology), metrics_(obs::bundle<FaultMetrics>()) {}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultSpec& fault : plan.sorted()) {
    // The actor tag tells a model-checking ChoiceHook which fault events
    // commute: faults on distinct targets are independent, so the explorer
    // never wastes runs reordering them against each other. +1 keeps node 0
    // distinct from the "unknown" actor.
    const std::uint32_t actor = actor_of(fault);
    sim_.schedule_at(fault.at, [this, fault] { apply(fault); }, kApplyTag,
                     actor);
    if (!fault.permanent()) {
      sim_.schedule_at(fault.at + fault.duration,
                       [this, fault] { heal(fault); }, kHealTag, actor);
    }
  }
}

std::uint32_t FaultInjector::actor_of(const FaultSpec& fault) {
  switch (fault.kind) {
    case FaultKind::kDepotCrash:
      return fault.node + 1;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkBrownout:
      // Both endpoints identify the duplex pair; fold them symmetrically so
      // the same pair always maps to the same actor, distinct from depots.
      return ((std::min(fault.link_a, fault.link_b) + 1) << 16) ^
             (std::max(fault.link_a, fault.link_b) + 1);
    case FaultKind::kNwsBlackout:
      return 0;  // global: conservatively dependent on everything
  }
  return 0;
}

void FaultInjector::apply(const FaultSpec& fault) {
  ++active_;
  switch (fault.kind) {
    case FaultKind::kLinkDown:
      set_duplex_loss(fault.link_a, fault.link_b, 1.0);
      break;
    case FaultKind::kLinkBrownout:
      set_duplex_loss(fault.link_a, fault.link_b, fault.loss);
      if (fault.rate_factor < 1.0) {
        scale_duplex_rate(fault.link_a, fault.link_b, fault.rate_factor);
      }
      break;
    case FaultKind::kDepotCrash:
      if (depot_control_) {
        depot_control_(fault.node, /*up=*/false);
      }
      break;
    case FaultKind::kNwsBlackout:
      if (nws_control_) {
        nws_control_(/*blackout=*/true);
      }
      break;
  }
  note(fault, /*applied=*/true);
}

void FaultInjector::heal(const FaultSpec& fault) {
  --active_;
  switch (fault.kind) {
    case FaultKind::kLinkDown:
      restore_duplex_loss(fault.link_a, fault.link_b);
      break;
    case FaultKind::kLinkBrownout:
      restore_duplex_loss(fault.link_a, fault.link_b);
      if (fault.rate_factor < 1.0) {
        restore_duplex_rate(fault.link_a, fault.link_b);
      }
      break;
    case FaultKind::kDepotCrash:
      if (depot_control_) {
        depot_control_(fault.node, /*up=*/true);
      }
      break;
    case FaultKind::kNwsBlackout:
      if (nws_control_) {
        nws_control_(/*blackout=*/false);
      }
      break;
  }
  note(fault, /*applied=*/false);
}

void FaultInjector::set_duplex_loss(net::NodeId a, net::NodeId b,
                                    double loss) {
  for (net::Link* link : {topo_.link_between(a, b), topo_.link_between(b, a)}) {
    if (link == nullptr) {
      LSL_WARN("fault: no link between %u and %u", a, b);
      continue;
    }
    saved_loss_.try_emplace(link, link->config().loss_rate);
    link->set_loss_rate(loss);
  }
}

void FaultInjector::scale_duplex_rate(net::NodeId a, net::NodeId b,
                                      double factor) {
  for (net::Link* link : {topo_.link_between(a, b), topo_.link_between(b, a)}) {
    if (link == nullptr) {
      continue;  // set_duplex_loss already warned for this pair
    }
    saved_rate_.try_emplace(link, link->config().rate);
    link->set_rate(Bandwidth{link->config().rate.bits_per_second() * factor});
  }
}

void FaultInjector::restore_duplex_rate(net::NodeId a, net::NodeId b) {
  for (net::Link* link : {topo_.link_between(a, b), topo_.link_between(b, a)}) {
    if (link == nullptr) {
      continue;
    }
    if (const auto it = saved_rate_.find(link); it != saved_rate_.end()) {
      link->set_rate(it->second);
      saved_rate_.erase(it);
    }
  }
}

void FaultInjector::restore_duplex_loss(net::NodeId a, net::NodeId b) {
  for (net::Link* link : {topo_.link_between(a, b), topo_.link_between(b, a)}) {
    if (link == nullptr) {
      continue;
    }
    if (const auto it = saved_loss_.find(link); it != saved_loss_.end()) {
      link->set_loss_rate(it->second);
      saved_loss_.erase(it);
    }
  }
}

void FaultInjector::note(const FaultSpec& fault, bool applied) {
  LSL_DEBUG("fault: %s %s at t=%s", applied ? "apply" : "heal",
            to_string(fault.kind), sim_.now().str().c_str());
  if (metrics_ != nullptr) {
    (applied ? metrics_->injected : metrics_->healed)->inc();
    metrics_->active->set(static_cast<double>(active_));
    if (applied) {
      switch (fault.kind) {
        case FaultKind::kLinkDown:
          metrics_->link_down->inc();
          break;
        case FaultKind::kLinkBrownout:
          metrics_->link_brownouts->inc();
          break;
        case FaultKind::kDepotCrash:
          metrics_->depot_crashes->inc();
          break;
        case FaultKind::kNwsBlackout:
          metrics_->nws_blackouts->inc();
          break;
      }
    } else if (fault.kind == FaultKind::kDepotCrash) {
      metrics_->depot_restarts->inc();
    }
  }
  if (obs::SpanRecorder* sr = obs::spans()) {
    const char* kind_name = to_string(fault.kind);
    const double target =
        fault.kind == FaultKind::kDepotCrash
            ? static_cast<double>(fault.node)
            : static_cast<double>(fault.link_a);
    const FaultKey key{static_cast<int>(fault.kind), fault.at.ns(), fault.node,
                       fault.link_a, fault.link_b};
    if (applied) {
      fault_spans_[key] = sr->begin(sim_.now(), obs::SpanKind::kFaultWindow,
                                    /*session=*/0, 0, 0, kind_name, target);
    } else if (const auto it = fault_spans_.find(key);
               it != fault_spans_.end()) {
      sr->end(sim_.now(), obs::SpanKind::kFaultWindow, it->second,
              /*session=*/0, kind_name, target);
      fault_spans_.erase(it);
    }
  }
}

}  // namespace lsl::fault
