// Scenario-level drivers for the invariant suite: the model checker's
// scenario adapter (lslsim --verify) and the fault-schedule fuzzer
// (lslsim --fuzz-faults). Both reuse mc::Invariants unchanged -- the fuzzer
// is the explorer's checks minus the schedule search, so hundreds of random
// fault plans are as cheap as hundreds of plain scenario runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/plan.hpp"
#include "mc/explorer.hpp"

namespace lsl::mc {

// ---- fault-schedule fuzzer --------------------------------------------------

struct FuzzResult {
  std::uint64_t runs = 0;
  std::vector<std::uint64_t> bad_seeds;
  /// Invariant violations, each prefixed "seed N: " -- rerun that seed to
  /// reproduce bit-for-bit (the plan and the run share it).
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string str() const;
};

/// Replace `scenario`'s declared faults/churns with a random plan drawn from
/// seed base_seed + i for each of `runs` iterations, run it, and check every
/// mc::Invariants observation plus per-transfer outcomes. Plans take their
/// candidate depots and links from the scenario and the rest of their shape
/// from fault/plan.hpp's random-plan constants. A scenario without a `recovery`
/// directive gets a default recovery loop, so injected faults exercise
/// resume instead of failing terminally.
[[nodiscard]] FuzzResult fuzz_fault_schedules(const exp::Scenario& scenario,
                                              std::uint64_t base_seed,
                                              std::uint64_t runs);

// ---- scenario verification (lslsim --verify) --------------------------------

struct VerifyOptions {
  ExplorerOptions explorer;
  /// Fault-timing shifts explored as extra variants (one fault moved per
  /// variant; see fault::perturbations). Empty = verify only the scenario
  /// as written. The explorer run budget is split across variants.
  std::vector<SimTime> perturb_offsets;
};

/// A counterexample plus which fault-timing variant produced it.
struct VerifyCounterexample {
  std::size_t variant = 0;    ///< index into VerifyResult::variant_labels
  Counterexample ce;
};

struct VerifyResult {
  ExploreStats stats;  ///< summed across all variants
  std::vector<std::string> variant_labels;  ///< [0] is always "original"
  std::vector<VerifyCounterexample> counterexamples;

  [[nodiscard]] bool ok() const { return counterexamples.empty(); }
};

/// Model-check `scenario`: DFS over event interleavings for the plan as
/// written, then once per perturbation variant. Stops at the first
/// counterexample.
[[nodiscard]] VerifyResult verify_scenario(const exp::Scenario& scenario,
                                           std::uint64_t seed,
                                           const VerifyOptions& options = {});

/// ScenarioFn adapter for the Explorer: runs exp::run_scenario with the
/// explorer's ChoiceHook attached to the harness kernel and notes every
/// transfer outcome. `scenario` is captured by reference and must outlive
/// the returned function.
[[nodiscard]] ScenarioFn scenario_fn(const exp::Scenario& scenario,
                                     std::uint64_t seed);

}  // namespace lsl::mc
