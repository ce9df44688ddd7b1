// Periodic re-scheduling (paper section 4.2: "the scheduler was re-run at
// 5 minute intervals and was based on relatively current information").
//
// The Rescheduler owns the measure -> matrix -> schedule loop: on every
// tick it takes one measurement epoch, builds the cost matrix from the
// accumulated forecasts, then invokes a callback so the deployment can
// install fresh route tables or re-evaluate live sessions. A tick whose
// matrix differs from the current scheduler's in any directed edge replaces
// it with a fresh Scheduler, whose trees are built lazily on first use; a
// tick with no change (a monitor blackout, say) keeps the current one.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "nws/monitor.hpp"
#include "sched/scheduler.hpp"
#include "sim/timer.hpp"

namespace lsl::nws {

class Rescheduler {
 public:
  /// Invoked after every tick with the fresh scheduler.
  using OnSchedule = std::function<void(const sched::Scheduler&)>;

  Rescheduler(sim::Simulator& simulator, PerformanceMonitor monitor,
              TruthFn truth, SimTime interval,
              sched::SchedulerOptions options, OnSchedule on_schedule);

  Rescheduler(const Rescheduler&) = delete;
  Rescheduler& operator=(const Rescheduler&) = delete;

  /// Take the first measurement epoch and start the periodic loop.
  void start();
  void stop();

  /// The most recently built scheduler; null before the first tick. The
  /// pointer stays valid until a later tick finds the forecasts moved.
  [[nodiscard]] const sched::Scheduler* current() const { return current_.get(); }
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

  /// The owned monitor (fault injection flips its measurement blackout).
  [[nodiscard]] PerformanceMonitor& monitor() { return monitor_; }

 private:
  void tick();

  sim::Simulator& sim_;
  PerformanceMonitor monitor_;
  TruthFn truth_;
  SimTime interval_;
  sched::SchedulerOptions options_;
  OnSchedule on_schedule_;
  std::unique_ptr<sched::Scheduler> current_;
  sim::Timer timer_;
  std::size_t rebuilds_ = 0;
};

}  // namespace lsl::nws
