// Text scenario files: a small declarative format describing a topology,
// depot configuration, and a list of transfers, so experiments can be run
// from the command line (tools/lslsim) without writing C++.
//
//   # hosts: name and site; each gets the next NodeId (0, 1, 2, ...)
//   host ash.ucsb.edu ucsb.edu
//   host depot.denver  core
//   host bell.uiuc.edu uiuc.edu
//
//   # duplex links: endpoints plus key=value attributes
//   link ash.ucsb.edu depot.denver   rate=155 delay=23 queue=8192 loss=1e-5
//   link depot.denver bell.uiuc.edu  rate=155 delay=22.5 queue=8192 loss=5e-4
//   link ash.ucsb.edu bell.uiuc.edu  rate=155 delay=35 queue=8192 loss=5e-4
//
//   # or start from a named preset and override selectively; presets:
//   #   wan2004   155 Mbit/s, 23 ms, 8 MiB queue, loss 5e-4 (the paper's era)
//   #   wan10g    10 Gbit/s, 80 ms, 32 MiB queue, loss 1e-4 (lossy high-BDP)
//   #   metro10g  10 Gbit/s, 1 ms, 4 MiB queue, loss 1e-5 (intra-metro)
//   #   metro100g 100 Gbit/s, 1 ms, 32 MiB queue, loss 1e-6
//   link ash.ucsb.edu bell.uiuc.edu  preset=wan10g delay=35
//
//   # optional: depot tuning (applies to every host)
//   depot buffers=8192 user=16384 max_sessions=64
//
//   # pin a pair's routing onto their direct link (both directions); the
//   # pair needs a `link` line, as do link-down and brownout faults
//   pin ash.ucsb.edu bell.uiuc.edu
//
//   # transfers run in order; via is a comma-separated depot list
//   transfer ash.ucsb.edu bell.uiuc.edu size=64 buffers=8192
//   transfer ash.ucsb.edu bell.uiuc.edu size=64 buffers=8192 via=depot.denver
//
//   # deterministic faults; `for` heals the fault after that long (omit it
//   # for a permanent fault)
//   fault link-down ash.ucsb.edu depot.denver at=5 for=10
//   fault brownout depot.denver bell.uiuc.edu at=5 for=10 loss=0.3
//   # factor throttles the pair's link rate (what NWS probes measure)
//   fault brownout depot.denver bell.uiuc.edu at=5 for=10 loss=0 factor=0.05
//   fault depot-crash depot.denver at=5 for=10
//   fault nws-blackout at=5 for=60
//
//   # seeded crash/repair renewal process for one depot
//   churn depot.denver mtbf=30 mttr=2 start=0 horizon=600
//
//   # run transfers under the session-recovery loop; `recovery off` keeps
//   # failure detection (failed transfers are reported promptly) but never
//   # retries. backoff/max_backoff in ms, stall in s.
//   recovery retries=8 stall=10 backoff=250 max_backoff=10000 jitter=0.25
//
//   # mid-transfer adaptive rerouting: an NWS measure->schedule loop runs
//   # every `interval` seconds and a RouteAdvisor may hand live transfers
//   # over to a better path (hysteresis/dwell/penalty tune the rule;
//   # sigma is monitor measurement noise, epsilon the scheduler damping)
//   reroute interval=5 hysteresis=0.15 dwell=10 penalty=1 sigma=0.05
//
//   # alternative to an explicit topology: a synthetic PlanetLab-style pool
//   # speedup sweep (lslsim runs run_speedup_sweep over ~size hosts)
//   pool size=1024 epsilon=0.25 iterations=2 cases=400 sizes=4 drift=0.0
//
//   # congestion control for every transfer and depot relay:
//   # reno | newreno (default) | cubic | bbr
//   cca cubic
//
//   # data-plane fidelity: `packet` (default) simulates every segment;
//   # `flow` carries payload on the fluid engine -- same sessions, depots,
//   # recovery, and rerouting, at a fraction of the event count. In pool
//   # scenarios this selects simulated (rather than analytic) measurement.
//   fidelity flow
//
// Units: rate in Mbit/s, delay in ms (one way), queue/buffers/user in KiB,
// size in MiB, loss as a probability, fault/churn times in seconds.
//
// Ranges: every number must be finite and at most 1e9, and a value outside
// its attribute's range is an error naming the attribute.
//   positive      link rate/queue; depot buffers/user/max_sessions;
//                 transfer size/buffers; churn mtbf/mttr; recovery
//                 retries/stall; reroute interval; pool size/iterations/
//                 cases/sizes (size at least 2)
//   non-negative  link delay; fault at/for; churn start/horizon; recovery
//                 backoff/max_backoff; reroute dwell/penalty/sigma/epsilon;
//                 pool epsilon/drift
//   in [0, 1]     link and brownout loss; recovery jitter; reroute
//                 hysteresis
//   in (0, 1]     brownout factor
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/harness.hpp"
#include "fault/plan.hpp"
#include "flow/tcp_model.hpp"
#include "nws/monitor.hpp"

namespace lsl::exp {

struct ScenarioHost {
  std::string name;
  std::string site;
};

struct ScenarioLink {
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  net::LinkConfig config;
};

struct ScenarioTransfer {
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::vector<net::NodeId> via;
  std::uint64_t bytes = 0;
  std::uint64_t buffer_bytes = 64 * kKiB;
};

/// A `pool` directive: instead of an explicit host/link topology, run a
/// speedup sweep over a synthetic PlanetLab-style pool of roughly `size`
/// hosts (the control-plane scaling path -- see lslsim --pool-size).
struct ScenarioPool {
  std::size_t size = 142;
  /// Scheduler epsilon; negative = use the grid's calibrated sweep_epsilon.
  double epsilon = -1.0;
  std::size_t iterations = 2;
  std::size_t max_cases = 400;
  int max_size_exp = 4;       ///< transfer sizes 1 MiB << 0..max_size_exp-1
  double drift_sigma = 0.0;   ///< stale-matrix lognormal drift
};

/// A `reroute` directive: run the NWS measure -> schedule loop during the
/// scenario and let a sched::RouteAdvisor hand in-flight transfers over to
/// a better path mid-transfer (the PR 5 tentpole, end to end).
struct ScenarioReroute {
  double interval_s = 5.0;   ///< rescheduler tick cadence
  double hysteresis = 0.15;  ///< required fractional improvement
  double dwell_s = 10.0;     ///< min time between route changes
  double penalty_s = 1.0;    ///< fixed handover cost charged to candidates
  double sigma = 0.05;       ///< monitor lognormal measurement noise
  double epsilon = 0.0;      ///< scheduler edge-equivalence damping
};

struct Scenario {
  /// In declaration order. A host's NodeId is its index here: the parser
  /// resolves every host name to it, and run_scenario's harness gives the
  /// host that id.
  std::vector<ScenarioHost> hosts;
  std::vector<ScenarioLink> links;
  /// Pairs whose traffic is routed onto their direct link, both ways.
  std::vector<std::pair<net::NodeId, net::NodeId>> pins;
  session::DepotConfig depot;
  std::vector<ScenarioTransfer> transfers;
  /// The `fault` directives, in file order.
  fault::FaultPlan faults;
  /// The `churn` directives, expanded by run_scenario from the run seed.
  std::vector<fault::ChurnSpec> churns;
  /// Present when a `recovery` directive appeared. Transfers run under the
  /// recovery loop whenever this is set or any fault/churn exists; without
  /// a directive the loop runs detection-only (enabled = false).
  std::optional<session::RecoveryConfig> recovery;
  /// Present when a `reroute` directive appeared. Implies transfers run
  /// under the recovery loop (planned handovers ride its resume machinery).
  std::optional<ScenarioReroute> reroute;
  /// Present when a `pool` directive appeared. A pool scenario needs no
  /// hosts or links -- lslsim runs a synthetic-grid speedup sweep instead
  /// of the packet-level transfer list.
  std::optional<ScenarioPool> pool;
  /// Present when a `fidelity` directive appeared; run_scenario defaults to
  /// packet fidelity otherwise. Pool sweeps read this too: unset means
  /// analytic measurement, set means per-case simulation at that fidelity.
  std::optional<Fidelity> fidelity;
  /// Present when a `cca` directive appeared: the congestion-control
  /// algorithm applied to every transfer's endpoints and depot relays
  /// (lslsim --cca= overrides it). Unset = the NewReno default.
  std::optional<flow::Cca> cca;
};

struct ParseResult {
  std::optional<Scenario> scenario;
  std::string error;  ///< set when scenario is empty; includes line number

  [[nodiscard]] bool ok() const { return scenario.has_value(); }
};

/// Parse scenario text (see format above).
[[nodiscard]] ParseResult parse_scenario(const std::string& text);

/// Result of one scenario transfer.
struct ScenarioOutcome {
  ScenarioTransfer transfer;
  SimHarness::TransferOutcome outcome;
};

/// Ground truth for the monitor over a packet topology: end-to-end
/// bandwidth of (i, j) is the bottleneck effective rate -- link rate
/// discounted by loss -- along the currently routed path, zero when no
/// route exists. Injected link faults therefore show up in NWS probes and
/// drift the forecasts, which is what drives the RouteAdvisor.
[[nodiscard]] nws::TruthFn topology_truth(net::Topology& topology);

/// Build the harness, run every transfer in order, return the outcomes.
/// When `profile_out` is non-null, kernel profiling (wall-clock sampling)
/// is enabled for the run and the final profile is stored there. When
/// `leaked_connections_out` is non-null, teardown is drained after the last
/// transfer and the number of TCP connections still alive anywhere is
/// stored there (nonzero = a leak). `on_harness` (when set) runs right
/// after harness construction, before any hosts or transfers exist -- the
/// model checker uses it to install its ChoiceHook on the simulator.
[[nodiscard]] std::vector<ScenarioOutcome> run_scenario(
    const Scenario& scenario, std::uint64_t seed,
    SimTime per_transfer_deadline = SimTime::seconds(3600),
    sim::KernelProfile* profile_out = nullptr,
    std::size_t* leaked_connections_out = nullptr,
    const std::function<void(SimHarness&)>& on_harness = nullptr);

}  // namespace lsl::exp
