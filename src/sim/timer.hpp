// Restartable one-shot timer built on the Simulator.
//
// TCP needs retransmission / persist timers that are armed, re-armed, and
// cancelled constantly; Timer wraps the generation-counted cancellation
// dance so the protocol code can't leak stale events. The callback is fixed
// at construction; arming only chooses the deadline.
//
// Re-arming is lazy: pushing a pending deadline later only stores the new
// deadline, and the kernel event re-arms itself when it fires early. A
// retransmission timer restarted on every ACK therefore costs no kernel
// event per ACK. Only a re-arm to an earlier deadline (or cancel()) touches
// the kernel.
#pragma once

#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace lsl::sim {

class Timer {
 public:
  /// `tag` is the category the timer's kernel events are counted under in
  /// the kernel profile (e.g. "tcp.rto"); default untagged.
  Timer(Simulator& simulator, std::function<void()> on_fire, Tag tag = {})
      : sim_(simulator), on_fire_(std::move(on_fire)), tag_(tag) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// (Re)arm the timer to fire `delay` from now. A pending arm is replaced;
  /// the callback runs once, at the last deadline set.
  void arm(SimTime delay) {
    deadline_ = sim_.now() + delay;
    if (pending_.valid() && event_at_ <= deadline_) {
      return;  // the pending event fires early and re-arms itself
    }
    cancel();
    schedule();
  }

  /// Arm only if not already armed.
  void arm_if_idle(SimTime delay) {
    if (!armed()) {
      arm(delay);
    }
  }

  void cancel() {
    if (pending_.valid()) {
      sim_.cancel(pending_);
      pending_ = EventId{};
    }
  }

  [[nodiscard]] bool armed() const { return pending_.valid(); }

  /// Deadline of the most recent arm (meaningful only while armed()).
  [[nodiscard]] SimTime deadline() const { return deadline_; }

 private:
  void schedule() {
    event_at_ = deadline_;
    pending_ = sim_.schedule_at(event_at_, [this] { on_event(); }, tag_);
  }

  void on_event() {
    pending_ = EventId{};
    if (sim_.now() < deadline_) {
      schedule();  // the deadline moved later since this event was armed
      return;
    }
    on_fire_();
  }

  Simulator& sim_;
  std::function<void()> on_fire_;
  Tag tag_;
  EventId pending_{};
  SimTime deadline_ = SimTime::zero();
  /// When the pending kernel event fires (<= deadline_ while armed).
  SimTime event_at_ = SimTime::zero();
};

}  // namespace lsl::sim
