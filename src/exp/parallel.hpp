// Parallel trial engine: run N independent trials across worker threads
// with results that are bitwise identical for any --jobs value.
//
// The determinism contract (see docs/performance.md):
//   * Each trial is a pure function of its trial index plus read-only shared
//     inputs. Anything stochastic must come from an Rng forked
//     deterministically from the trial index (or from state fixed before the
//     engine starts) -- never from a generator advanced across trials.
//   * The kernel stays single-threaded: a trial builds its own
//     sim::Simulator / topology / stacks. Parallelism exists only BETWEEN
//     trials, never inside one.
//   * Results are collected into a slot per trial and merged in trial
//     order after all workers finish, so aggregation never observes worker
//     scheduling.
//   * Built-in observability stays lock-free: each trial runs under a
//     per-trial obs::Registry (and, when the caller records spans, a
//     per-trial obs::SpanRecorder) installed thread-locally; the engine
//     folds them into the caller's in trial order.
//
// Scheduling is chunked, not work-stealing: workers claim fixed-size runs
// of consecutive trial indices (about eight claims per worker) off one
// atomic cursor. Chunking amortizes the cursor bump and keeps per-trial
// registries cache-warm; no stealing means no cross-worker ordering effects
// to reason about.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace lsl::exp {

struct TrialOptions {
  /// Total worker count, including the calling thread. 1 runs inline with
  /// no threads and no locking, but still under per-trial observability
  /// scoping (registry and span sinks are reset each trial and merged in
  /// trial order), so serial and parallel runs emit identical streams --
  /// including gauge high-water marks. 0 means lsl::default_jobs().
  std::size_t jobs = 1;
};

/// Runs body(trial) for every trial in [0, n). Blocks until all trials
/// finished. The first exception thrown by a trial body (in trial order) is
/// rethrown after the batch drains. body must treat shared state as
/// read-only; see the determinism contract above.
void for_each_trial(std::size_t n, const TrialOptions& options,
                    const std::function<void(std::size_t)>& body);

/// As for_each_trial, but collects one R per trial, returned in trial order.
template <typename R>
[[nodiscard]] std::vector<R> map_trials(
    std::size_t n, const TrialOptions& options,
    const std::function<R(std::size_t)>& body) {
  std::vector<R> results(n);
  for_each_trial(n, options,
                 [&](std::size_t trial) { results[trial] = body(trial); });
  return results;
}

}  // namespace lsl::exp
