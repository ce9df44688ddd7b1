// Stateless model checking over the deterministic sim kernel.
//
// The Explorer runs a user-supplied scenario function to completion, once
// per schedule. A sim::ChoiceHook policy records *choice points* -- dispatch
// steps where several events are simultaneously ready (equal timestamps, or
// within an optional slack window: fault firings vs timer pops, offset-query
// replies vs retries, reroute decisions vs acks) -- and replays the run with
// systematically perturbed picks: depth-first search over the choice tree.
//
// Reduction is sleep-set style (SimGrid's DFSExplorer idiom): after branch
// j is taken at a choice point, its unpicked elder siblings enter the sleep
// set; a run that later fires a sleeping event without first firing one
// *dependent* on it is a reordering of commutative (independent-actor)
// events the search has already covered, and is marked redundant -- counted
// but never branched from. Budgets (max runs / depth, and at most four
// branches per point) bound the search for CI; exhausting them trades
// completeness for time. The search stops at its first counterexample.
//
// Every run executes under the mc::Invariants observer; a violating run is
// minimized greedily (non-default picks reset to 0 where the violation
// survives), replayed once more under a flight recorder, and captured as a
// Counterexample holding the exact pick vector needed to reproduce it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mc/invariants.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace lsl::mc {

/// Extra runs spent shrinking each violating trace.
inline constexpr std::uint64_t kMinimizeBudget = 32;

struct ExplorerOptions {
  std::uint64_t max_runs = 64;    ///< total scenario executions
  std::size_t max_depth = 32;     ///< choice points branched per run
  /// Ready-window slack: 0 explores only exact timestamp ties; > 0 also
  /// reorders events this close together (models timing perturbations).
  SimTime slack = SimTime::zero();
  bool sleep_sets = true;         ///< prune commutative reorderings
};

/// One recorded branching step: the candidate events that were ready (sleep
/// set already filtered out) and which index fired.
struct ChoicePoint {
  SimTime when = SimTime::zero();
  std::vector<sim::ReadyEvent> candidates;
  std::size_t picked = 0;
};

/// Everything observed during one scenario execution.
struct RunRecord {
  std::vector<ChoicePoint> trace;
  std::vector<std::string> violations;
  std::uint64_t schedule_hash = 0;  ///< FNV-1a over dispatched seqs
  std::uint64_t events = 0;         ///< events dispatched
  bool redundant = false;  ///< fired a sleeping event: already-covered order
};

/// A violating schedule, minimized and deterministically replayable: feeding
/// `picks` back through Explorer::replay() reproduces `run` bit-identically.
struct Counterexample {
  std::vector<std::size_t> picks;
  RunRecord run;
  std::string post_mortem;  ///< flight-recorder dump from the final replay

  /// Human-readable choice trace + violations (the artifact CI uploads).
  [[nodiscard]] std::string str() const;
  /// Compact replay key, e.g. "0,2,1" (empty = default schedule).
  [[nodiscard]] std::string picks_csv() const;
};

struct ExploreStats {
  std::uint64_t runs = 0;            ///< scenario executions (incl. minimize)
  std::uint64_t redundant_runs = 0;  ///< pruned as commutative reorderings
  std::uint64_t distinct_schedules = 0;
  std::uint64_t choice_points = 0;   ///< recorded across all runs
  std::uint64_t events = 0;          ///< total events dispatched
  std::uint64_t branches_pruned_sleep = 0;
  std::uint64_t branches_pruned_budget = 0;
  std::uint64_t violation_runs = 0;

  [[nodiscard]] std::string str() const;
};

/// Handed to the scenario function: wire the run's simulator(s) to the
/// explorer's policy and report outcomes into the run's invariant suite.
class RunContext {
 public:
  /// Route `sim`'s dispatch through the explorer (call right after the
  /// simulator is constructed, before any events run).
  void attach(sim::Simulator& sim);

  [[nodiscard]] Invariants& invariants() { return *invariants_; }

 private:
  friend class Explorer;
  sim::ChoiceHook* policy_ = nullptr;
  Invariants* invariants_ = nullptr;
  SimTime slack_ = SimTime::zero();
};

/// The scenario under test: build a simulation, ctx.attach() its kernel, run
/// it to completion, and note_outcome() every transfer. Must be a pure
/// function of its inputs -- the explorer replays it many times and relies
/// on identical picks producing identical runs.
using ScenarioFn = std::function<void(RunContext&)>;

class Explorer {
 public:
  explicit Explorer(ScenarioFn scenario, ExplorerOptions options = {});

  /// DFS over the choice tree until a budget runs out or a counterexample
  /// is found.
  const ExploreStats& explore();

  /// Execute the scenario once with a fixed pick vector (indexes into each
  /// recorded choice point's candidates; missing / out-of-range entries fall
  /// back to 0). Deterministic: same picks, same run.
  RunRecord replay(const std::vector<std::size_t>& picks);

  [[nodiscard]] const std::vector<Counterexample>& counterexamples() const {
    return counterexamples_;
  }
  [[nodiscard]] const ExploreStats& stats() const { return stats_; }

 private:
  RunRecord execute(const std::vector<std::size_t>& prefix);
  void record_counterexample(RunRecord record);

  ScenarioFn scenario_;
  ExplorerOptions options_;
  ExploreStats stats_;
  std::vector<Counterexample> counterexamples_;
  std::unordered_set<std::uint64_t> seen_schedules_;
};

}  // namespace lsl::mc
