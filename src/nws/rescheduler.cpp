#include "nws/rescheduler.hpp"

#include <utility>

#include "obs/span.hpp"

namespace lsl::nws {

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
  std::size_t changed_edges = 0;
  if (current_ == nullptr) {
    current_ = std::make_unique<sched::Scheduler>(monitor_.build_matrix(),
                                                  options_);
  } else {
    // Diff-apply the fresh forecasts: cached trees stay live and repair
    // only their affected subtrees on next use.
    changed_edges = current_->apply_matrix(monitor_.build_matrix());
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
