#include "mc/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace lsl::mc {

namespace {

std::map<std::string, net::NodeId> host_ids(const exp::Scenario& scenario) {
  // run_scenario adds hosts in declaration order, so NodeId == index.
  std::map<std::string, net::NodeId> ids;
  for (std::size_t i = 0; i < scenario.hosts.size(); ++i) {
    ids[scenario.hosts[i].name] = static_cast<net::NodeId>(i);
  }
  return ids;
}

/// Each transfer of a checked run must finish within this much simulated
/// time.
constexpr SimTime kTransferDeadline = SimTime::seconds(3600);

std::string seconds_str(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.6gs", s);
  return buf;
}

}  // namespace

fault::FaultPlan declared_plan(const exp::Scenario& scenario) {
  const auto ids = host_ids(scenario);
  fault::FaultPlan plan;
  for (const exp::ScenarioFault& f : scenario.faults) {
    fault::FaultSpec spec;
    spec.kind = f.kind;
    spec.at = SimTime::from_seconds(f.at_s);
    spec.duration = SimTime::from_seconds(f.for_s);
    spec.loss = f.loss;
    spec.rate_factor = f.rate_factor;
    switch (f.kind) {
      case fault::FaultKind::kDepotCrash:
        spec.node = ids.at(f.a);
        break;
      case fault::FaultKind::kLinkDown:
      case fault::FaultKind::kLinkBrownout:
        spec.link_a = ids.at(f.a);
        spec.link_b = ids.at(f.b);
        break;
      case fault::FaultKind::kNwsBlackout:
        break;
    }
    plan.add(spec);
  }
  return plan;
}

exp::Scenario with_fault_plan(const exp::Scenario& scenario,
                              const fault::FaultPlan& plan,
                              bool clear_churns) {
  exp::Scenario out = scenario;
  out.faults.clear();
  if (clear_churns) {
    out.churns.clear();
  }
  for (const fault::FaultSpec& spec : plan.faults) {
    exp::ScenarioFault f;
    f.kind = spec.kind;
    f.at_s = spec.at.to_seconds();
    f.for_s = spec.duration.to_seconds();
    f.loss = spec.loss;
    f.rate_factor = spec.rate_factor;
    switch (spec.kind) {
      case fault::FaultKind::kDepotCrash:
        f.a = scenario.hosts.at(spec.node).name;
        break;
      case fault::FaultKind::kLinkDown:
      case fault::FaultKind::kLinkBrownout:
        f.a = scenario.hosts.at(spec.link_a).name;
        f.b = scenario.hosts.at(spec.link_b).name;
        break;
      case fault::FaultKind::kNwsBlackout:
        break;
    }
    out.faults.push_back(std::move(f));
  }
  return out;
}

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
  const auto ids = host_ids(scenario);
  fault::RandomPlanSpec space;
  // Depot-crash candidates: every host a transfer routes via. Link faults
  // draw from the declared topology.
  for (const exp::ScenarioTransfer& t : scenario.transfers) {
    for (const std::string& hop : t.via) {
      const net::NodeId id = ids.at(hop);
      if (std::find(space.depots.begin(), space.depots.end(), id) ==
          space.depots.end()) {
        space.depots.push_back(id);
      }
    }
  }
  for (const exp::ScenarioLink& link : scenario.links) {
    space.links.emplace_back(ids.at(link.a), ids.at(link.b));
  }

  FuzzResult out;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = base_seed + i;
    // The plan stream is salted so it stays decoupled from the harness rng,
    // which also consumes `seed`.
    Rng rng(seed ^ Rng::hash("mc.fuzz.plan"));
    const fault::FaultPlan plan = fault::random_plan(space, rng);
    exp::Scenario variant =
        with_fault_plan(scenario, plan, /*clear_churns=*/true);
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
  // Variant 0 is the scenario exactly as written; the rest shift one fault's
  // time per variant (fault::perturbations). Labels mirror its skip rule
  // (zero-offset and clamped-onto-original shifts produce no variant).
  std::vector<exp::Scenario> variants{scenario};
  out.variant_labels.push_back("original");
  const fault::FaultPlan base = declared_plan(scenario);
  if (!options.perturb_offsets.empty() && !base.empty()) {
    fault::PerturbSpec pspec;
    pspec.offsets = options.perturb_offsets;
    pspec.include_original = false;
    const std::vector<fault::FaultPlan> shifted =
        fault::perturbations(base, pspec);
    for (const fault::FaultPlan& plan : shifted) {
      variants.push_back(with_fault_plan(scenario, plan));
    }
    for (std::size_t i = 0; i < base.faults.size(); ++i) {
      for (const SimTime offset : pspec.offsets) {
        SimTime at = base.faults[i].at + offset;
        if (at < SimTime::zero()) {
          at = SimTime::zero();
        }
        if (at == base.faults[i].at) {
          continue;
        }
        out.variant_labels.push_back(
            std::string("fault ") + std::to_string(i) + " (" +
            fault::to_string(base.faults[i].kind) + ") shifted " +
            seconds_str(offset.to_seconds()));
      }
    }
    LSL_ASSERT_MSG(out.variant_labels.size() == variants.size(),
                   "perturbation labels diverged from fault::perturbations");
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
