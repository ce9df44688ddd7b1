// FaultInjector: schedules a FaultPlan onto the simulation kernel.
//
// Link faults are applied by mutating the duplex pair's Bernoulli loss rate
// (down = loss 1.0; brownout = the spec's loss), restoring the original
// rates when the fault heals. Depot and NWS faults are delegated to
// callbacks supplied by the experiment harness, keeping this layer free of
// lsl/nws dependencies. Every injection and heal is counted in metrics and
// emitted to the obs trace as an instant in the "fault" category.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>

#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace lsl::fault {

/// Process-wide fault instruments (global metrics registry).
struct FaultMetrics {
  explicit FaultMetrics(obs::Registry& reg)
      : injected(&reg.counter("fault.injected")),
        healed(&reg.counter("fault.healed")),
        link_down(&reg.counter("fault.link_down")),
        link_brownouts(&reg.counter("fault.link_brownouts")),
        depot_crashes(&reg.counter("fault.depot_crashes")),
        depot_restarts(&reg.counter("fault.depot_restarts")),
        nws_blackouts(&reg.counter("fault.nws_blackouts")),
        active(&reg.gauge("fault.active")) {}

  obs::Counter* injected;
  obs::Counter* healed;
  obs::Counter* link_down;
  obs::Counter* link_brownouts;
  obs::Counter* depot_crashes;
  obs::Counter* depot_restarts;
  obs::Counter* nws_blackouts;
  obs::Gauge* active;  ///< currently live faults
};

class FaultInjector {
 public:
  /// up == false takes the depot out of service; true restores it.
  using DepotControl = std::function<void(net::NodeId, bool up)>;
  /// blackout == true suspends NWS measurement; false resumes it.
  using NwsControl = std::function<void(bool blackout)>;

  FaultInjector(sim::Simulator& sim, net::Topology& topology);

  void set_depot_control(DepotControl control) {
    depot_control_ = std::move(control);
  }
  void set_nws_control(NwsControl control) {
    nws_control_ = std::move(control);
  }

  /// Schedule every fault (and its heal, when transient) onto the kernel.
  void schedule(const FaultPlan& plan);

  /// ChoiceHook commutativity tag for a fault's apply/heal events: faults
  /// on distinct targets get distinct nonzero actors (they commute); global
  /// faults (NWS blackout) get 0 (dependent on everything).
  [[nodiscard]] static std::uint32_t actor_of(const FaultSpec& fault);

  [[nodiscard]] int active_faults() const { return active_; }

 private:
  void apply(const FaultSpec& fault);
  void heal(const FaultSpec& fault);
  void set_duplex_loss(net::NodeId a, net::NodeId b, double loss);
  void restore_duplex_loss(net::NodeId a, net::NodeId b);
  void scale_duplex_rate(net::NodeId a, net::NodeId b, double factor);
  void restore_duplex_rate(net::NodeId a, net::NodeId b);
  void note(const FaultSpec& fault, bool applied);

  sim::Simulator& sim_;
  net::Topology& topo_;
  DepotControl depot_control_;
  NwsControl nws_control_;
  /// Pre-fault loss/link rates, saved at first application per directed
  /// link so overlapping faults restore the true original value.
  std::unordered_map<net::Link*, double> saved_loss_;
  std::unordered_map<net::Link*, Bandwidth> saved_rate_;
  /// Open kFaultWindow spans, keyed by the fault's identity (the apply and
  /// heal closures hold separate FaultSpec copies, so identity is by value:
  /// kind, scheduled time, and target).
  using FaultKey =
      std::tuple<int, std::int64_t, net::NodeId, net::NodeId, net::NodeId>;
  std::map<FaultKey, std::uint64_t> fault_spans_;
  int active_ = 0;
  FaultMetrics* metrics_;
};

}  // namespace lsl::fault
