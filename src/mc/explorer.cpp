#include "mc/explorer.hpp"

#include <algorithm>
#include <utility>

#include "obs/span.hpp"
#include "util/assert.hpp"

namespace lsl::mc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Alternatives tried per choice point.
constexpr std::size_t kMaxBranches = 4;

/// Two events commute iff both carry a nonzero actor and the actors differ;
/// actor 0 ("unknown") is conservatively dependent on everything.
bool independent(const sim::ReadyEvent& a, const sim::ReadyEvent& b) {
  return a.actor != 0 && b.actor != 0 && a.actor != b.actor;
}

std::string describe(const sim::ReadyEvent& e) {
  std::string out = e.category != nullptr ? e.category : "(untagged)";
  out += " seq=" + std::to_string(e.seq);
  if (e.actor != 0) {
    out += " actor=" + std::to_string(e.actor);
  }
  return out;
}

/// The per-run scheduling policy: follow the pick prefix, default to the
/// deterministic order beyond it, maintain the sleep set, and record every
/// multi-candidate window as a choice point.
class Policy final : public sim::ChoiceHook {
 public:
  Policy(const ExplorerOptions& options,
         const std::vector<std::size_t>& prefix, RunRecord& record)
      : options_(options), prefix_(prefix), record_(record) {
    record_.schedule_hash = kFnvOffset;
  }

  std::size_t choose(const std::vector<sim::ReadyEvent>& ready) override {
    // Candidates = ready minus the sleep set. Sleeping events stay
    // dispatchable (the kernel needs the run to finish) but are never
    // *chosen* ahead of others: any order starting with one is a
    // commutation of a schedule already explored.
    candidate_idx_.clear();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      if (!sleeping(ready[i])) {
        candidate_idx_.push_back(i);
      }
    }
    pruned_sleep += ready.size() - candidate_idx_.size();
    if (candidate_idx_.empty()) {
      // Every ready event is asleep: this whole run is redundant (the
      // dispatched() callback flags it when the pick actually fires).
      return 0;
    }
    std::size_t pick = 0;
    if (candidate_idx_.size() > 1) {
      const std::size_t cp = record_.trace.size();
      if (cp < prefix_.size() && prefix_[cp] < candidate_idx_.size()) {
        pick = prefix_[cp];
      }
      ChoicePoint point;
      point.when = ready[candidate_idx_[pick]].when;
      for (const std::size_t i : candidate_idx_) {
        point.candidates.push_back(ready[i]);
      }
      point.picked = pick;
      record_.trace.push_back(std::move(point));
    }
    if (options_.sleep_sets) {
      // Unpicked elder siblings go to sleep: orders that fire them before
      // the pick will be reached by the sibling branches instead.
      for (std::size_t j = 0; j < pick; ++j) {
        sleep_.push_back(ready[candidate_idx_[j]]);
      }
    }
    return candidate_idx_[pick];
  }

  void dispatched(const sim::ReadyEvent& fired) override {
    record_.schedule_hash =
        (record_.schedule_hash ^ fired.seq) * kFnvPrime;
    ++record_.events;
    if (!options_.sleep_sets) {
      return;
    }
    if (sleeping(fired)) {
      record_.redundant = true;
    }
    // Waking rule: an event dependent on the fired one leaves the sleep set
    // (the new order is no longer a pure commutation).
    sleep_.erase(std::remove_if(sleep_.begin(), sleep_.end(),
                                [&fired](const sim::ReadyEvent& b) {
                                  return b.seq == fired.seq ||
                                         !independent(b, fired);
                                }),
                 sleep_.end());
  }

  std::uint64_t pruned_sleep = 0;

 private:
  [[nodiscard]] bool sleeping(const sim::ReadyEvent& e) const {
    return std::any_of(
        sleep_.begin(), sleep_.end(),
        [&e](const sim::ReadyEvent& b) { return b.seq == e.seq; });
  }

  const ExplorerOptions& options_;
  const std::vector<std::size_t>& prefix_;
  RunRecord& record_;
  std::vector<sim::ReadyEvent> sleep_;
  std::vector<std::size_t> candidate_idx_;
};

std::vector<std::size_t> picks_of(const RunRecord& record) {
  std::vector<std::size_t> picks;
  picks.reserve(record.trace.size());
  for (const ChoicePoint& point : record.trace) {
    picks.push_back(point.picked);
  }
  while (!picks.empty() && picks.back() == 0) {
    picks.pop_back();  // trailing defaults are implicit
  }
  return picks;
}

}  // namespace

// ---------------------------------------------------------------------------

std::string Counterexample::picks_csv() const {
  std::string out;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(picks[i]);
  }
  return out;
}

std::string Counterexample::str() const {
  std::string out = "counterexample: " + std::to_string(run.trace.size()) +
                    " choice points, replay picks [" + picks_csv() + "]\n";
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    const ChoicePoint& point = run.trace[i];
    out += "  cp " + std::to_string(i) + " @ " + point.when.str() + ": ";
    for (std::size_t j = 0; j < point.candidates.size(); ++j) {
      out += (j == point.picked ? "[" : "");
      out += describe(point.candidates[j]);
      out += (j == point.picked ? "]" : "");
      if (j + 1 < point.candidates.size()) {
        out += " | ";
      }
    }
    out += "\n";
  }
  out += "violations:\n";
  for (const std::string& v : run.violations) {
    out += "  - " + v + "\n";
  }
  return out;
}

std::string ExploreStats::str() const {
  std::string out = "explored " + std::to_string(runs) + " runs (" +
                    std::to_string(distinct_schedules) +
                    " distinct schedules, " + std::to_string(redundant_runs) +
                    " redundant), " + std::to_string(choice_points) +
                    " choice points, " + std::to_string(events) + " events\n";
  out += "pruned: " + std::to_string(branches_pruned_sleep) +
         " sleep-set, " + std::to_string(branches_pruned_budget) +
         " budget; violations in " + std::to_string(violation_runs) +
         " run(s)\n";
  return out;
}

// ---------------------------------------------------------------------------

void RunContext::attach(sim::Simulator& sim) {
  LSL_ASSERT_MSG(policy_ != nullptr, "RunContext used outside an explorer");
  sim.set_choice_hook(policy_, slack_);
}

Explorer::Explorer(ScenarioFn scenario, ExplorerOptions options)
    : scenario_(std::move(scenario)), options_(options) {}

RunRecord Explorer::execute(const std::vector<std::size_t>& prefix) {
  RunRecord record;
  Policy policy(options_, prefix, record);
  Invariants invariants;
  RunContext ctx;
  ctx.policy_ = &policy;
  ctx.invariants_ = &invariants;
  ctx.slack_ = options_.slack;
  {
    ScopedObserver observer(&invariants);
    scenario_(ctx);
  }
  invariants.finalize();
  record.violations = invariants.violations();
  ++stats_.runs;
  stats_.events += record.events;
  stats_.choice_points += record.trace.size();
  stats_.branches_pruned_sleep += policy.pruned_sleep;
  if (record.redundant) {
    ++stats_.redundant_runs;
  } else if (seen_schedules_.insert(record.schedule_hash).second) {
    ++stats_.distinct_schedules;
  }
  if (!record.violations.empty()) {
    ++stats_.violation_runs;
  }
  return record;
}

RunRecord Explorer::replay(const std::vector<std::size_t>& picks) {
  return execute(picks);
}

void Explorer::record_counterexample(RunRecord record) {
  std::vector<std::size_t> picks = picks_of(record);
  // Greedy minimization: reset non-default picks to 0 from the tail; keep a
  // change whenever the violation survives. Bounded by kMinimizeBudget
  // extra executions.
  std::uint64_t budget = kMinimizeBudget;
  for (std::size_t i = picks.size(); i-- > 0 && budget > 0;) {
    if (picks[i] == 0) {
      continue;
    }
    std::vector<std::size_t> trial = picks;
    trial[i] = 0;
    while (!trial.empty() && trial.back() == 0) {
      trial.pop_back();
    }
    --budget;
    RunRecord attempt = execute(trial);
    if (!attempt.violations.empty()) {
      picks = std::move(trial);
    }
  }
  // Final deterministic replay under a fresh flight recorder so the
  // counterexample ships with its post-mortem. Span recording never alters
  // the simulation (ids are pre-drawn), so this reproduces the violation.
  Counterexample ce;
  ce.picks = picks;
  obs::SpanRecorder recorder(0);
  {
    obs::ScopedSpanRecorder scoped(&recorder);
    ce.run = execute(picks);
  }
  ce.post_mortem = obs::post_mortem_all(recorder, /*only_troubled=*/false);
  LSL_ASSERT_MSG(!ce.run.violations.empty(),
                 "counterexample replay lost the violation");
  counterexamples_.push_back(std::move(ce));
}

const ExploreStats& Explorer::explore() {
  std::vector<std::vector<std::size_t>> frontier;
  frontier.push_back({});
  while (!frontier.empty() && stats_.runs < options_.max_runs &&
         counterexamples_.empty()) {
    const std::vector<std::size_t> prefix = std::move(frontier.back());
    frontier.pop_back();
    RunRecord record = execute(prefix);
    if (!record.violations.empty()) {
      record_counterexample(std::move(record));
      continue;
    }
    if (record.redundant) {
      continue;  // an already-covered order; never branch from it
    }
    // Branch: every choice point at or past the frozen prefix contributes
    // its untried alternatives. Push deepest-last so the DFS extends the
    // shallowest new branch first.
    for (std::size_t cp = record.trace.size(); cp-- > prefix.size();) {
      const ChoicePoint& point = record.trace[cp];
      if (cp >= options_.max_depth) {
        stats_.branches_pruned_budget += point.candidates.size() - 1;
        continue;
      }
      const std::size_t tried =
          std::min(point.candidates.size(), kMaxBranches);
      stats_.branches_pruned_budget += point.candidates.size() - tried;
      for (std::size_t j = tried; j-- > 1;) {
        std::vector<std::size_t> child;
        child.reserve(cp + 1);
        for (std::size_t k = 0; k < cp; ++k) {
          child.push_back(record.trace[k].picked);
        }
        child.push_back(j);
        frontier.push_back(std::move(child));
      }
    }
  }
  return stats_;
}

}  // namespace lsl::mc
