// Discrete-event simulation kernel.
//
// A Simulator owns an indexed 4-ary min-heap laid out in a flat vector: the
// heap holds 16-byte (time, sequence|slot) keys, and the event closures
// (sim::Action, small-buffer-optimized) live in a side slot table, so heap
// sifts never relocate a closure. Sequence numbers break ties so that
// same-timestamp events fire in schedule order, which makes every run fully
// deterministic. Cancellable timers are layered on top (timer.hpp).
//
// Cancellation is generation-counted: every EventId names a slot in a side
// table plus the generation the slot had when the event was scheduled. The
// generation bumps whenever the event fires or is cancelled, so cancel() is
// an O(1) array probe (no hashing, no tombstone set) and a stale id can
// never affect a newer event that reuses the slot. Cancelled entries stay in
// the heap until they surface at the top, where a generation mismatch drops
// them for free.
//
// Observability: the kernel always keeps cheap counters (events scheduled /
// executed / cancelled, live-queue-depth high water, schedules per interned
// category tag in a fixed array); set_profiling(true) additionally samples
// wall-clock time around event dispatch so profile() can report the
// simulated-vs-wall ratio and the dispatch time spent in each layer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/action.hpp"
#include "sim/tag.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace lsl::obs {
class Registry;
}  // namespace lsl::obs

namespace lsl::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Packs (slot index + 1) in the low 32 bits and the slot's generation in
/// the high 32; a default-constructed id is invalid.
struct EventId {
  std::uint64_t raw = 0;

  [[nodiscard]] bool valid() const { return raw != 0; }
  friend bool operator==(EventId a, EventId b) { return a.raw == b.raw; }
};

/// Snapshot of the kernel's self-measurements (see Simulator::profile()).
struct KernelProfile {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t queue_high_water = 0;  ///< max live pending entries ever
  SimTime sim_time = SimTime::zero();  ///< clock at snapshot
  double wall_seconds = 0.0;           ///< dispatch wall time (profiling on)
  /// Events scheduled per category tag, descending by count. Untagged
  /// events are not listed (their total is events_scheduled minus the sum).
  std::vector<std::pair<std::string, std::uint64_t>> category_counts;
  /// Tagged events scheduled per layer, indexed by sim::Layer; they sum to
  /// the category counts.
  std::array<std::uint64_t, kLayerCount> layer_counts{};
  /// Dispatch wall seconds per layer (profiling on), indexed by sim::Layer;
  /// the last slot holds untagged events' time.
  std::array<double, kLayerCount + 1> layer_wall_seconds{};

  /// Simulated seconds advanced per wall second (0 when not profiled).
  [[nodiscard]] double time_ratio() const {
    return wall_seconds > 0.0 ? sim_time.to_seconds() / wall_seconds : 0.0;
  }

  /// Multi-line human-readable report.
  [[nodiscard]] std::string str() const;

  /// Publish as sim.kernel.* gauges in a metrics registry.
  void export_metrics(obs::Registry& registry) const;

  /// Accumulate another run's profile (counts add, high water maxes).
  void merge_from(const KernelProfile& other);
};

/// The kernel's raw self-measurements, unnamed: schedules per interned tag
/// id rather than per category name. Adding one per run costs a few array
/// sums, so a sweep adds every transfer's counts and names the total once
/// (profile()), where folding KernelProfiles would build and sort a name
/// map per transfer.
struct KernelCounts {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t queue_high_water = 0;  ///< max over the runs added
  SimTime sim_time = SimTime::zero();  ///< summed over the runs added
  double wall_seconds = 0.0;
  /// Schedules per Tag id (index 0 counts untagged events).
  std::array<std::uint64_t, Tag::kMaxTags> tag_counts{};
  /// Dispatch wall seconds per layer; the last slot is untagged events'.
  std::array<double, kLayerCount + 1> layer_wall_seconds{};

  /// Counts add, high water maxes (KernelProfile::merge_from's rules).
  void add(const KernelCounts& other);
  /// Name the categories and sort them: equal to the merge_from fold of the
  /// profiles of the runs added, in any order.
  [[nodiscard]] KernelProfile profile() const;
};

/// One schedulable event as shown to a ChoiceHook: enough identity to
/// reason about commutativity (actor), report (category), and replay (seq).
struct ReadyEvent {
  std::uint64_t seq = 0;  ///< global schedule order, unique per event
  SimTime when = SimTime::zero();
  const char* category = nullptr;  ///< name of the tag passed to schedule_at
  /// Commutativity tag: two events with different nonzero actors are
  /// independent (their dispatch order cannot matter); actor 0 means
  /// "unknown", which is conservatively dependent on everything.
  std::uint32_t actor = 0;
};

/// Model-checking hook (see src/mc/): when installed, the kernel stops at
/// each dispatch, enumerates every live event inside the ready window
/// (equal timestamps, widened by an optional slack), and asks the hook
/// which one fires next. The no-hook dispatch path is untouched.
class ChoiceHook {
 public:
  virtual ~ChoiceHook() = default;

  /// Pick the next event to fire from `ready` (size >= 2, sorted by the
  /// kernel's deterministic (when, seq) order; index 0 is what the plain
  /// kernel would run). Called only when the window holds several events.
  virtual std::size_t choose(const std::vector<ReadyEvent>& ready) = 0;

  /// Observes every event dispatched while the hook is installed, including
  /// forced singleton windows that never reach choose().
  virtual void dispatched(const ReadyEvent& fired) { (void)fired; }
};

/// Single-threaded discrete-event simulator. Each instance is confined to
/// one thread; the parallel trial engine (exp/parallel.hpp) runs one
/// Simulator per trial, never sharing one across threads.
class Simulator {
 public:
  using Action = sim::Action;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` to run at absolute time `when` (>= now). `tag` is
  /// the event's category, counted in the kernel profile (default:
  /// untagged). `actor` is the ChoiceHook commutativity tag (ignored
  /// without a hook).
  EventId schedule_at(SimTime when, Action action, Tag tag = {},
                      std::uint32_t actor = 0);

  /// Schedule `action` to run `delay` from now (delay >= 0).
  EventId schedule_after(SimTime delay, Action action, Tag tag = {},
                         std::uint32_t actor = 0);

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled. O(1): the slot's generation is bumped so the heap entry is
  /// recognized as dead when it reaches the top.
  bool cancel(EventId id);

  /// Run until the event queue is empty or `limit` is reached, whichever is
  /// first. Returns the number of events executed.
  std::uint64_t run(SimTime limit = SimTime::max());

  /// Run a single event if one exists; returns false when the queue is empty.
  bool step();

  /// Stop at the end of the current event (run() returns afterwards).
  void request_stop() { stop_requested_ = true; }

  /// Live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Enable wall-clock sampling around dispatch (off by default: two clock
  /// reads per event are measurable on micro-benchmarks).
  void set_profiling(bool enabled) { profiling_ = enabled; }
  [[nodiscard]] bool profiling() const { return profiling_; }

  /// Install (or with nullptr, remove) a model-checking choice hook. While
  /// installed, dispatch enumerates the ready window -- all live events at
  /// the top timestamp, widened to [top, top + slack] when slack > 0 -- and
  /// lets the hook reorder it. Scheduling into the past is clamped to now()
  /// in hook mode, since slack dispatch may run an event after a time it
  /// used to compute an absolute deadline. Not for the perf path: each
  /// dispatch walks the heap top to collect the window.
  void set_choice_hook(ChoiceHook* hook, SimTime slack = SimTime::zero());

  [[nodiscard]] KernelProfile profile() const;
  /// Add this kernel's raw counters to `out` (see KernelCounts).
  void add_counts_to(KernelCounts& out) const;

 private:
  /// Heap key: 16 bytes of POD (4 per cache line, so a 4-ary sift level is
  /// usually one line). `key` packs the global sequence number in the high
  /// 40 bits and the slot index in the low 24; comparing `key` therefore
  /// tie-breaks same-timestamp events by schedule order. Closures live in
  /// the slot table, so sifts never relocate one.
  struct Entry {
    SimTime when;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] bool before(const Entry& other) const {
      if (when != other.when) {
        return when < other.when;
      }
      return key < other.key;
    }
  };

  static constexpr unsigned kSlotBits = 24;  ///< <= 16.7M concurrent events
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  static constexpr std::uint64_t slot_of(std::uint64_t raw) {
    return (raw & 0xFFFFFFFFULL) - 1;
  }
  static constexpr std::uint32_t gen_of(std::uint64_t raw) {
    return static_cast<std::uint32_t>(raw >> 32U);
  }

  /// Per-slot bookkeeping, one 16-byte record so the dispatch path's key
  /// probe and the cancel path's generation probe share a cache line.
  struct SlotState {
    std::uint64_t key = 0;  ///< packed key while live (cancel zeroes it)
    std::uint32_t gen = 0;  ///< validates public EventIds
    std::uint8_t tag = 0;   ///< Tag id of the event in the slot
  };

  /// A heap key is live iff its slot still holds the same packed key: seq
  /// is globally unique, so one compare is exact (no generations needed on
  /// this path -- those only validate public EventIds). A dispatched key is
  /// popped and never probed again, so the dispatch path skips the key
  /// clear; a reused slot gets a fresh seq, which can never collide.
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }

  /// Retire the slot behind a live entry that is about to fire or was
  /// cancelled: bump the generation (invalidates outstanding EventIds) and
  /// recycle the index.
  void retire_slot(std::uint64_t slot) {
    ++slots_[slot].gen;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
  }

  /// Closure storage for `slot`. Chunked so growth never moves an Action.
  [[nodiscard]] Action& action_of(std::uint64_t slot) {
    return action_chunks_[slot >> kActionChunkShift]
                         [slot & (kActionChunkSize - 1)];
  }

  // 4-ary heap primitives over heap_ (flat vector, index arithmetic).
  void heap_push(Entry e);
  void heap_pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Drop dead entries off the top; afterwards heap_.front() (if any) is
  /// live. Returns false when the heap is empty.
  bool settle_top();
  /// Erase dead keys and re-heapify; called when corpses outnumber live
  /// entries so arm/cancel churn cannot grow the heap without bound.
  void compact_heap();
  /// Pop the live top (settle_top() must have returned true), advance the
  /// clock, and run its action.
  void dispatch_top();
  /// Where dispatch wall time of an event tagged `tag` is charged.
  [[nodiscard]] double& layer_wall(std::uint8_t tag) {
    return layer_wall_[tag == 0 ? kLayerCount
                                : static_cast<std::size_t>(
                                      Tag::from_id(tag).layer())];
  }

  // ---- choice-hook (model checking) slow path ----------------------------
  /// Collect every live entry in heap_[i]'s subtree with when <= window_end
  /// into ready_entries_. The heap invariant (child.when >= parent.when)
  /// prunes whole subtrees, so this costs O(5k) for k in-window events --
  /// k is 1 almost everywhere, so hook-mode dispatch stays near O(pop).
  void collect_ready(std::size_t i, SimTime window_end);
  /// Hook-mode dispatch: enumerate the ready window, let the hook pick,
  /// fire the pick. settle_top() must have returned true.
  void dispatch_choice(SimTime limit);
  /// Remove `e` (which must be live) from anywhere in the heap and run its
  /// action, advancing the clock monotonically to e.when.
  void dispatch_entry(const Entry& e);
  [[nodiscard]] ReadyEvent view_of(const Entry& e) const;

  static constexpr std::size_t kActionChunkShift = 10;
  static constexpr std::size_t kActionChunkSize = 1ULL << kActionChunkShift;

  std::vector<Entry> heap_;
  // Slot table as a POD array (dense probes, trivial reallocation) plus
  // chunked closure storage (growth never moves an Action).
  std::vector<SlotState> slots_;
  std::vector<std::unique_ptr<Action[]>> action_chunks_;
  std::vector<std::uint32_t> free_slots_;
  /// Key of the event currently being dispatched (0 when idle). Lets
  /// cancel() refuse to tear down the closure that is executing.
  std::uint64_t dispatching_key_ = 0;
  std::size_t live_events_ = 0;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;

  // Choice-hook state. slot_meta_ is a side table (category, actor) written
  // only while a hook is installed, so the no-hook schedule path never pays
  // for it; events scheduled before installation read as {nullptr, 0}.
  struct SlotMeta {
    const char* category = nullptr;
    std::uint32_t actor = 0;
  };
  ChoiceHook* choice_hook_ = nullptr;
  SimTime choice_slack_ = SimTime::zero();
  std::vector<SlotMeta> slot_meta_;
  std::vector<Entry> ready_entries_;     ///< dispatch_choice scratch
  std::vector<ReadyEvent> ready_view_;   ///< dispatch_choice scratch

  // Kernel self-measurement (see KernelProfile).
  bool profiling_ = false;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::size_t queue_high_water_ = 0;
  double wall_seconds_ = 0.0;
  /// Schedules per Tag id (index 0 counts untagged events).
  std::array<std::uint64_t, Tag::kMaxTags> tag_counts_{};
  /// Dispatch wall seconds per layer; the last slot is untagged events'.
  std::array<double, kLayerCount + 1> layer_wall_{};
};

}  // namespace lsl::sim
