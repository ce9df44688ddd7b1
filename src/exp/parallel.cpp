#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/threads.hpp"

namespace lsl::exp {
namespace {

/// The caller's observability sinks, captured before any trial runs: spans
/// is null when no span recorder is installed.
struct CallerSinks {
  obs::Registry* registry;
  obs::SpanRecorder* spans;
};

/// One trial's private sinks, merged into the caller's in trial order.
struct TrialSinks {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::SpanRecorder> spans;
};

/// Runs body(trial) with built-in instrumentation scoped to fresh private
/// sinks, so the caller's registry and recorder are never touched
/// concurrently.
TrialSinks run_scoped(std::size_t trial, const CallerSinks& caller,
                      const std::function<void(std::size_t)>& body) {
  TrialSinks own;
  own.registry = std::make_unique<obs::Registry>();
  const obs::ScopedRegistry registry_scope(*own.registry);
  std::optional<obs::ScopedSpanRecorder> span_scope;
  if (caller.spans != nullptr) {
    own.spans = std::make_unique<obs::SpanRecorder>(
        caller.spans->per_session_capacity());
    span_scope.emplace(own.spans.get());
  }
  body(trial);
  return own;
}

void merge(const TrialSinks& trial, const CallerSinks& caller) {
  caller.registry->merge_from(*trial.registry);
  if (trial.spans != nullptr) {
    caller.spans->append_from(*trial.spans);
  }
}

}  // namespace

void for_each_trial(std::size_t n, const TrialOptions& options,
                    const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  const std::size_t jobs =
      std::min(options.jobs == 0 ? default_jobs() : options.jobs, n);
  const CallerSinks caller{&obs::Registry::global(), obs::spans()};
  if (jobs <= 1) {
    // The reference serial loop: no threads, but the same per-trial sink
    // scoping as the workers use. Without it, gauges would accumulate their
    // value (and therefore their high-water mark) ACROSS trials in serial
    // runs while parallel runs reset them per trial -- the merged output
    // would depend on --jobs. Scoping here and merging immediately in loop
    // order makes every jobs value reproduce this exact stream.
    for (std::size_t trial = 0; trial < n; ++trial) {
      merge(run_scoped(trial, caller, body), caller);
    }
    return;
  }

  // Small enough to balance uneven trial costs, large enough that the
  // cursor bump is noise. ~8 claims per worker.
  const std::size_t chunk = std::max<std::size_t>(1, n / (jobs * 8));

  std::vector<TrialSinks> trial_sinks(n);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_trial = n;

  run_on_threads(jobs, [&](std::size_t) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n || failed.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t trial = begin; trial < end; ++trial) {
        try {
          trial_sinks[trial] = run_scoped(trial, caller, body);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          // Keep the lowest-index failure so the rethrown exception does
          // not depend on worker scheduling.
          if (trial < first_error_trial) {
            first_error_trial = trial;
            first_error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
  });

  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }

  // Post-hoc, ordered merge: totals and span streams come out exactly as
  // the serial loop would have produced them.
  for (const TrialSinks& sinks : trial_sinks) {
    merge(sinks, caller);
  }
}

}  // namespace lsl::exp
