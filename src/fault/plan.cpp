#include "fault/plan.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace lsl::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkBrownout:
      return "brownout";
    case FaultKind::kDepotCrash:
      return "depot-crash";
    case FaultKind::kNwsBlackout:
      return "nws-blackout";
  }
  return "?";
}

void FaultPlan::add_churn(const ChurnSpec& churn, Rng& rng) {
  LSL_ASSERT_MSG(churn.mtbf > SimTime::zero() && churn.mttr > SimTime::zero(),
                 "churn needs positive mtbf/mttr");
  SimTime t = churn.start;
  while (true) {
    t += SimTime::from_seconds(rng.exponential(churn.mtbf.to_seconds()));
    if (t >= churn.horizon) {
      break;
    }
    // A zero repair draw would read as "permanent"; keep crashes transient.
    const SimTime repair = std::max(
        SimTime::from_seconds(rng.exponential(churn.mttr.to_seconds())),
        SimTime::milliseconds(1));
    FaultSpec crash;
    crash.kind = FaultKind::kDepotCrash;
    crash.at = t;
    crash.duration = repair;
    crash.node = churn.node;
    faults.push_back(crash);
    t += repair;
  }
}

std::vector<FaultSpec> FaultPlan::sorted() const {
  std::vector<FaultSpec> out = faults;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return out;
}

std::vector<Perturbation> perturbations(const FaultPlan& plan,
                                        const std::vector<SimTime>& offsets) {
  std::vector<Perturbation> out;
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    for (const SimTime offset : offsets) {
      const SimTime shifted =
          std::max(plan.faults[i].at + offset, SimTime::zero());
      if (shifted == plan.faults[i].at) {
        continue;
      }
      Perturbation& p = out.emplace_back(Perturbation{i, offset, plan});
      p.plan.faults[i].at = shifted;
    }
  }
  return out;
}

FaultPlan random_plan(const RandomPlanSpec& spec, Rng& rng) {
  LSL_ASSERT_MSG(!spec.depots.empty() || !spec.links.empty(),
                 "random_plan needs at least one fault candidate");
  FaultPlan plan;
  const int count = static_cast<int>(
      rng.uniform_int(kMinRandomFaults, kMaxRandomFaults));
  for (int i = 0; i < count; ++i) {
    FaultSpec fault;
    // Depot crashes dominate the draw when both spaces exist: they exercise
    // the recovery protocol (blacklist, probe, resume) most directly.
    const bool depot_fault =
        !spec.depots.empty() &&
        (spec.links.empty() || rng.next_double() < 0.5);
    if (depot_fault) {
      fault.kind = FaultKind::kDepotCrash;
      fault.node = spec.depots[rng.pick_index(spec.depots.size())];
    } else {
      const auto& link = spec.links[rng.pick_index(spec.links.size())];
      fault.link_a = link.first;
      fault.link_b = link.second;
      if (rng.next_double() < 0.5) {
        fault.kind = FaultKind::kLinkDown;
      } else {
        fault.kind = FaultKind::kLinkBrownout;
        fault.loss = rng.uniform(0.05, 0.5);
        fault.rate_factor = rng.uniform(0.05, 1.0);
      }
    }
    fault.at = SimTime::from_seconds(
        rng.uniform(0.0, kRandomFaultHorizon.to_seconds()));
    constexpr SimTime kSpan = kMaxFaultDuration - kMinFaultDuration;
    fault.duration =
        kMinFaultDuration +
        SimTime::from_seconds(rng.uniform(0.0, kSpan.to_seconds()));
    plan.add(fault);
  }
  return plan;
}

}  // namespace lsl::fault
