#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/action.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace lsl::sim {
namespace {

using namespace lsl::time_literals;

/// The slot index packed into an EventId's low half (see simulator.hpp);
/// lets tests assert that a freed slot really was recycled.
std::uint32_t slot_part(EventId id) {
  return static_cast<std::uint32_t>(id.raw & 0xFFFFFFFFULL);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ms, [&] { order.push_back(3); });
  sim.schedule_at(10_ms, [&] { order.push_back(1); });
  sim.schedule_at(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(SimulatorTest, TieBreaksByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5_ms, [&] { order.push_back(1); });
  sim.schedule_at(5_ms, [&] { order.push_back(2); });
  sim.schedule_at(5_ms, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(10_ms, [&] {
    sim.schedule_after(5_ms, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 15_ms);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) {
      sim.schedule_after(1_ms, chain);
    }
  };
  sim.schedule_after(1_ms, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 100_ms);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10_ms, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ms, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_FALSE(sim.cancel(EventId{9999}));
}

TEST(SimulatorTest, RunWithLimitStopsAtLimit) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(10_ms, [] {});
  sim.schedule_at(100_ms, [&] { late_ran = true; });
  const auto executed = sim.run(50_ms);
  EXPECT_EQ(executed, 1u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), 50_ms);
  // Resuming runs the remaining event.
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.schedule_at(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] {
    ++count;
    sim.request_stop();
  });
  sim.schedule_at(2_ms, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, PendingEventsAccountsForCancellation) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::milliseconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10_ms, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  // The slot's generation advanced when the event fired.
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, StaleIdCannotCancelEventOnRecycledSlot) {
  Simulator sim;
  const EventId stale = sim.schedule_at(10_ms, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  // The next schedule reuses the freed slot under a new generation.
  bool ran = false;
  const EventId fresh = sim.schedule_at(20_ms, [&] { ran = true; });
  EXPECT_EQ(slot_part(stale), slot_part(fresh));
  EXPECT_FALSE(sim.cancel(stale));  // stale generation: a no-op
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StaleIdAfterFireCannotCancelRecycledSlot) {
  Simulator sim;
  const EventId stale = sim.schedule_at(1_ms, [] {});
  sim.run();
  bool ran = false;
  const EventId fresh = sim.schedule_at(2_ms, [&] { ran = true; });
  EXPECT_EQ(slot_part(stale), slot_part(fresh));
  EXPECT_FALSE(sim.cancel(stale));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventCanCancelAnotherDuringDispatch) {
  Simulator sim;
  bool victim_ran = false;
  const EventId victim = sim.schedule_at(20_ms, [&] { victim_ran = true; });
  bool cancelled = false;
  sim.schedule_at(10_ms, [&] { cancelled = sim.cancel(victim); });
  sim.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, HighWaterTracksLiveEventsNotTombstones) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  sim.cancel(a);
  // The dead heap entry must not count: replacing a cancelled event keeps
  // the live depth at 2.
  sim.schedule_at(3_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  const auto profile = sim.profile();
  EXPECT_EQ(profile.queue_high_water, 2u);
  EXPECT_EQ(profile.events_scheduled, 3u);
  EXPECT_EQ(profile.events_cancelled, 1u);
}

TEST(SimulatorTest, ManyCancelledEventsDrainWithoutDispatch) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(SimTime::milliseconds(i + 1), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
  }
  EXPECT_EQ(sim.pending_events(), 500u);
  EXPECT_EQ(sim.run(), 500u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ActionTest, SmallTriviallyCopyableCaptureStaysInline) {
  struct Small {
    std::uint64_t a, b;
  };
  Small payload{7, 35};
  std::uint64_t out = 0;
  auto fn = [payload, &out] { out = payload.a + payload.b; };
  static_assert(Action::fits_inline<decltype(fn)>());
  Action action(fn);
  Action moved(std::move(action));
  moved();
  EXPECT_EQ(out, 42u);
}

TEST(ActionTest, LargeCaptureFallsBackToHeapAndStillRuns) {
  struct Large {
    unsigned char bytes[Action::kInlineCapacity + 16] = {};
  };
  static_assert(!Action::fits_inline<Large>());
  Large payload;
  payload.bytes[0] = 9;
  int out = 0;
  Action action([payload, &out] { out = payload.bytes[0]; });
  Action moved(std::move(action));
  EXPECT_FALSE(static_cast<bool>(action));
  moved();
  EXPECT_EQ(out, 9);
}

TEST(ActionTest, NonTrivialCaptureDestroysExactlyOnce) {
  auto alive = std::make_shared<int>(1);
  std::weak_ptr<int> watch = alive;
  {
    Action action([keep = std::move(alive)] { (void)*keep; });
    Action moved(std::move(action));
    Action assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(TimerTest, FiresAtDeadline) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  Timer t(sim, [&] { fired = sim.now(); });
  t.arm(25_ms);
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 25_ms);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RearmReplacesDeadline) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(10_ms);
  t.arm(20_ms);
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), 20_ms);
}

TEST(TimerTest, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(10_ms);
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, ArmIfIdleKeepsEarlierDeadline) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  Timer t(sim, [&] { fired = sim.now(); });
  t.arm(10_ms);
  t.arm_if_idle(50_ms);  // ignored: already armed
  sim.run();
  EXPECT_EQ(fired, 10_ms);
}

TEST(TimerTest, CanRearmFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) {
      tp->arm(5_ms);
    }
  });
  tp = &t;
  t.arm(5_ms);
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now(), 15_ms);
}

TEST(TimerTest, RearmLaterSchedulesNothingNew) {
  Simulator sim;
  Timer t(sim, [] {});
  t.arm(10_ms);
  t.arm(20_ms);
  t.arm(30_ms);
  EXPECT_EQ(sim.profile().events_scheduled, 1u);
  EXPECT_EQ(sim.profile().events_cancelled, 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(t.deadline(), 30_ms);
}

TEST(TimerTest, RearmEarlierReschedules) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  Timer t(sim, [&] { fired = sim.now(); });
  t.arm(30_ms);
  t.arm(10_ms);
  EXPECT_EQ(sim.profile().events_scheduled, 2u);
  EXPECT_EQ(sim.profile().events_cancelled, 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 10_ms);
}

TEST(TimerTest, LazyRearmFiresOnceAtLastDeadline) {
  // Restarted every 4 ms, like an RTO on each ACK: the kernel event fires
  // early, re-arms at the deadline it finds, and the callback runs once.
  Simulator sim;
  std::vector<SimTime> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.arm(10_ms);
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(SimTime::milliseconds(4 * i), [&] { t.arm(10_ms); });
  }
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 30_ms);  // last arm at 20 ms
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.profile().events_cancelled, 0u);
}

TEST(TimerTest, CancelAndDestructionLeaveNoPendingEvents) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.arm(10_ms);
    t.arm(20_ms);  // lazy: the 10 ms event stays queued
    t.cancel();
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(sim.pending_events(), 0u);
    t.arm(5_ms);
    t.arm(50_ms);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(TimerTest, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.arm(10_ms);
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace lsl::sim
