#include "mc/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/rng.hpp"

namespace lsl::mc {

namespace {

/// Each transfer of a checked run must finish within this much simulated
/// time.
constexpr SimTime kTransferDeadline = SimTime::seconds(3600);

std::string seconds_str(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.6gs", s);
  return buf;
}

}  // namespace

std::string FuzzResult::str() const {
  std::string out = "fault fuzz: " + std::to_string(runs) + " runs, " +
                    std::to_string(bad_seeds.size()) + " bad seeds, " +
                    std::to_string(violations.size()) + " violations";
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  return out;
}

FuzzResult fuzz_fault_schedules(const exp::Scenario& scenario,
                                std::uint64_t base_seed, std::uint64_t runs) {
  fault::RandomPlanSpec space;
  // Depot-crash candidates: every host a transfer routes via. Link faults
  // draw from the declared topology.
  for (const exp::ScenarioTransfer& t : scenario.transfers) {
    for (const net::NodeId hop : t.via) {
      if (std::find(space.depots.begin(), space.depots.end(), hop) ==
          space.depots.end()) {
        space.depots.push_back(hop);
      }
    }
  }
  for (const exp::ScenarioLink& link : scenario.links) {
    space.links.emplace_back(link.a, link.b);
  }

  FuzzResult out;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = base_seed + i;
    // The plan stream is salted so it stays decoupled from the harness rng,
    // which also consumes `seed`.
    Rng rng(seed ^ Rng::hash("mc.fuzz.plan"));
    exp::Scenario variant = scenario;
    variant.faults = fault::random_plan(space, rng);
    variant.churns.clear();
    if (!variant.recovery.has_value()) {
      variant.recovery = session::RecoveryConfig{};
    }
    Invariants inv;
    {
      ScopedObserver observe(&inv);
      const auto outcomes =
          exp::run_scenario(variant, seed, kTransferDeadline);
      for (const exp::ScenarioOutcome& o : outcomes) {
        inv.note_outcome(o.outcome.session_hash, o.transfer.bytes,
                         o.outcome.completed, o.outcome.failed);
      }
    }
    inv.finalize();
    ++out.runs;
    if (!inv.ok()) {
      out.bad_seeds.push_back(seed);
      for (const std::string& v : inv.violations()) {
        out.violations.push_back("seed " + std::to_string(seed) + ": " + v);
      }
    }
  }
  return out;
}

ScenarioFn scenario_fn(const exp::Scenario& scenario, std::uint64_t seed) {
  return [&scenario, seed](RunContext& ctx) {
    const auto outcomes = exp::run_scenario(
        scenario, seed, kTransferDeadline, nullptr, nullptr,
        [&ctx](exp::SimHarness& h) { ctx.attach(h.simulator()); });
    for (const exp::ScenarioOutcome& o : outcomes) {
      ctx.invariants().note_outcome(o.outcome.session_hash, o.transfer.bytes,
                                    o.outcome.completed, o.outcome.failed);
    }
  };
}

namespace {

void merge_stats(ExploreStats& into, const ExploreStats& from) {
  into.runs += from.runs;
  into.redundant_runs += from.redundant_runs;
  into.distinct_schedules += from.distinct_schedules;
  into.choice_points += from.choice_points;
  into.events += from.events;
  into.branches_pruned_sleep += from.branches_pruned_sleep;
  into.branches_pruned_budget += from.branches_pruned_budget;
  into.violation_runs += from.violation_runs;
}

}  // namespace

VerifyResult verify_scenario(const exp::Scenario& scenario, std::uint64_t seed,
                             const VerifyOptions& options) {
  VerifyResult out;
  // Variant 0 is the scenario exactly as written; the rest shift one
  // declared fault's time each (fault::perturbations).
  std::vector<exp::Scenario> variants{scenario};
  out.variant_labels.push_back("original");
  for (fault::Perturbation& p :
       fault::perturbations(scenario.faults, options.perturb_offsets)) {
    out.variant_labels.push_back(
        std::string("fault ") + std::to_string(p.fault) + " (" +
        fault::to_string(scenario.faults.faults[p.fault].kind) +
        ") shifted " + seconds_str(p.offset.to_seconds()));
    exp::Scenario& variant = variants.emplace_back(scenario);
    variant.faults = std::move(p.plan);
  }

  const std::uint64_t per_variant = std::max<std::uint64_t>(
      options.explorer.max_runs / variants.size(), 4);
  for (std::size_t v = 0; v < variants.size() && out.counterexamples.empty();
       ++v) {
    ExplorerOptions opts = options.explorer;
    opts.max_runs = per_variant;
    Explorer explorer(scenario_fn(variants[v], seed), opts);
    explorer.explore();
    merge_stats(out.stats, explorer.stats());
    for (const Counterexample& ce : explorer.counterexamples()) {
      out.counterexamples.push_back({v, ce});
    }
  }
  return out;
}

}  // namespace lsl::mc
