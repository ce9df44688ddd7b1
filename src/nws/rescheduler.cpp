#include "nws/rescheduler.hpp"

#include <utility>

#include "obs/span.hpp"
#include "util/assert.hpp"

namespace lsl::nws {

namespace {

/// Directed edges whose cost differs between two same-size matrices; absent
/// edges (inf == inf) compare equal.
std::size_t changed_edge_count(const sched::CostMatrix& old_matrix,
                               const sched::CostMatrix& fresh) {
  LSL_ASSERT(old_matrix.size() == fresh.size());
  const std::size_t n = fresh.size();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* was = old_matrix.row(i);
    const double* now = fresh.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      changed += was[j] != now[j] ? 1 : 0;
    }
  }
  return changed;
}

}  // namespace

Rescheduler::Rescheduler(sim::Simulator& simulator,
                         PerformanceMonitor monitor, TruthFn truth,
                         SimTime interval, sched::SchedulerOptions options,
                         OnSchedule on_schedule)
    : sim_(simulator),
      monitor_(std::move(monitor)),
      truth_(std::move(truth)),
      interval_(interval),
      options_(std::move(options)),
      on_schedule_(std::move(on_schedule)),
      timer_(simulator, [this] { tick(); }) {}

void Rescheduler::start() { tick(); }

void Rescheduler::stop() { timer_.cancel(); }

void Rescheduler::tick() {
  monitor_.observe_epoch(truth_);
  sched::CostMatrix fresh = monitor_.build_matrix();
  std::size_t changed_edges = 0;
  if (current_ != nullptr) {
    changed_edges = changed_edge_count(current_->matrix(), fresh);
  }
  // Re-run the scheduler only when the forecasts moved; an unchanged
  // matrix (a monitor blackout, say) keeps the current trees.
  if (current_ == nullptr || changed_edges > 0) {
    current_ = std::make_unique<sched::Scheduler>(std::move(fresh), options_);
  }
  ++rebuilds_;
  if (obs::SpanRecorder* sr = obs::spans()) {
    sr->instant(sim_.now(), obs::SpanKind::kForecastEpoch, /*session=*/0, 0, 0,
                "incremental", static_cast<double>(changed_edges));
  }
  if (on_schedule_) {
    on_schedule_(*current_);
  }
  timer_.arm(interval_);
}

}  // namespace lsl::nws
