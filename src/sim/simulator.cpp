#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace lsl::sim {

namespace {

std::int64_t sim_log_clock(void* ctx) {
  return static_cast<const Simulator*>(ctx)->now().ns();
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// KernelProfile

std::string KernelProfile::str() const {
  char buf[256];
  std::string out = "kernel profile:\n";
  std::snprintf(buf, sizeof buf,
                "  events executed    %llu (scheduled %llu, cancelled %llu)\n",
                static_cast<unsigned long long>(events_executed),
                static_cast<unsigned long long>(events_scheduled),
                static_cast<unsigned long long>(events_cancelled));
  out += buf;
  std::snprintf(buf, sizeof buf, "  queue high water   %llu\n",
                static_cast<unsigned long long>(queue_high_water));
  out += buf;
  std::snprintf(buf, sizeof buf, "  simulated time     %s\n",
                sim_time.str().c_str());
  out += buf;
  if (wall_seconds > 0.0) {
    std::snprintf(buf, sizeof buf,
                  "  dispatch wall time %.3fs (%.1fx real time, %.0f ev/s)\n",
                  wall_seconds, time_ratio(),
                  static_cast<double>(events_executed) / wall_seconds);
    out += buf;
  }
  std::uint64_t tagged = 0;
  for (const std::uint64_t count : layer_counts) {
    tagged += count;
  }
  const std::uint64_t untagged = events_scheduled - tagged;
  const double untagged_wall = layer_wall_seconds[kLayerCount];
  if (tagged > 0 || wall_seconds > 0.0) {
    out += "  events by layer:\n";
    const auto row = [&](const char* name, std::uint64_t count, double wall) {
      if (count == 0 && wall == 0.0) {
        return;
      }
      std::snprintf(buf, sizeof buf, "    %-8s %12llu", name,
                    static_cast<unsigned long long>(count));
      out += buf;
      if (wall_seconds > 0.0) {
        std::snprintf(buf, sizeof buf, "  %8.3fs", wall);
        out += buf;
      }
      out += '\n';
    };
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      row(to_string(static_cast<Layer>(i)), layer_counts[i],
          layer_wall_seconds[i]);
    }
    row("untagged", untagged, untagged_wall);
  }
  if (!category_counts.empty()) {
    out += "  events by category:\n";
    for (const auto& [category, count] : category_counts) {
      std::snprintf(buf, sizeof buf, "    %-24s %llu\n", category.c_str(),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
  }
  return out;
}

void KernelProfile::export_metrics(obs::Registry& registry) const {
  registry.gauge("sim.kernel.events_executed")
      .set(static_cast<double>(events_executed));
  registry.gauge("sim.kernel.events_scheduled")
      .set(static_cast<double>(events_scheduled));
  registry.gauge("sim.kernel.events_cancelled")
      .set(static_cast<double>(events_cancelled));
  registry.gauge("sim.kernel.queue_high_water")
      .set(static_cast<double>(queue_high_water));
  registry.gauge("sim.kernel.sim_seconds").set(sim_time.to_seconds());
  registry.gauge("sim.kernel.wall_seconds").set(wall_seconds);
  registry.gauge("sim.kernel.time_ratio").set(time_ratio());
}

void KernelProfile::merge_from(const KernelProfile& other) {
  events_scheduled += other.events_scheduled;
  events_executed += other.events_executed;
  events_cancelled += other.events_cancelled;
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
  sim_time += other.sim_time;
  wall_seconds += other.wall_seconds;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layer_counts[i] += other.layer_counts[i];
  }
  for (std::size_t i = 0; i <= kLayerCount; ++i) {
    layer_wall_seconds[i] += other.layer_wall_seconds[i];
  }
  std::map<std::string, std::uint64_t> merged;
  for (const auto& [category, count] : category_counts) {
    merged[category] += count;
  }
  for (const auto& [category, count] : other.category_counts) {
    merged[category] += count;
  }
  category_counts.assign(merged.begin(), merged.end());
  std::sort(category_counts.begin(), category_counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
}

// ---------------------------------------------------------------------------
// KernelCounts

void KernelCounts::add(const KernelCounts& other) {
  events_scheduled += other.events_scheduled;
  events_executed += other.events_executed;
  events_cancelled += other.events_cancelled;
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
  sim_time += other.sim_time;
  wall_seconds += other.wall_seconds;
  for (std::size_t id = 0; id < Tag::kMaxTags; ++id) {
    tag_counts[id] += other.tag_counts[id];
  }
  for (std::size_t i = 0; i <= kLayerCount; ++i) {
    layer_wall_seconds[i] += other.layer_wall_seconds[i];
  }
}

KernelProfile KernelCounts::profile() const {
  KernelProfile p;
  p.events_scheduled = events_scheduled;
  p.events_executed = events_executed;
  p.events_cancelled = events_cancelled;
  p.queue_high_water = queue_high_water;
  p.sim_time = sim_time;
  p.wall_seconds = wall_seconds;
  p.layer_wall_seconds = layer_wall_seconds;
  // Name order first, then a sort by count: the listing's tie order does
  // not depend on the order tags were interned in.
  std::map<std::string, std::uint64_t> by_name;
  for (std::size_t id = 1; id < Tag::id_count(); ++id) {
    if (tag_counts[id] == 0) {
      continue;
    }
    const Tag tag = Tag::from_id(static_cast<std::uint8_t>(id));
    by_name.emplace(tag.name(), tag_counts[id]);
    p.layer_counts[static_cast<std::size_t>(tag.layer())] += tag_counts[id];
  }
  p.category_counts.assign(by_name.begin(), by_name.end());
  std::sort(p.category_counts.begin(), p.category_counts.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return p;
}

// ---------------------------------------------------------------------------
// Simulator

Simulator::Simulator() {
  // Log lines carry the simulated timestamp of the most recently created
  // live simulator on this thread (tests that run several sequentially each
  // take over; parallel trials each own their thread's clock).
  set_log_clock(&sim_log_clock, this);
  // Skip the first few doubling-growth reallocations; ~9 KB per simulator.
  heap_.reserve(256);
  slots_.reserve(256);
  free_slots_.reserve(256);
}

Simulator::~Simulator() { clear_log_clock(this); }

// ---------------------------------------------------------------------------
// 4-ary heap of 16-byte POD keys. Children of i are 4i+1 .. 4i+4. A wider
// node fans the tree out to ~half the depth of a binary heap: pops do more
// comparisons per level but fewer key moves. Sifts use hole insertion (save
// the key, shift, place) rather than pairwise swaps.

void Simulator::heap_push(Entry e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void Simulator::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  // Hole-sink (the libstdc++ __adjust_heap trick): heap_[i] was just
  // replaced by an element from the bottom, which almost always belongs
  // near the bottom again. Sink the hole to a leaf choosing only the
  // smallest child per level (3 comparisons, no early-exit compare against
  // the displaced element), then sift the element up from there (usually a
  // single comparison). Saves a compare per level on the common path.
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  std::size_t hole = i;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) {
      break;
    }
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) {
        best = c;
      }
    }
    __builtin_prefetch(&heap_[std::min(4 * best + 1, n - 1)]);
    heap_[hole] = heap_[best];
    hole = best;
  }
  // Place e and bubble it back up (not past i, where it was heap-ordered).
  while (hole > i) {
    const std::size_t parent = (hole - 1) / 4;
    if (parent < i || !e.before(heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulator::heap_pop_top() {
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

void Simulator::compact_heap() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !entry_live(e); }),
              heap_.end());
  // Floyd heap construction. Pop order is fully determined by the (when,
  // seq) total order, so the internal layout after a rebuild is
  // unobservable.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

// ---------------------------------------------------------------------------

EventId Simulator::schedule_at(SimTime when, Action action, Tag tag,
                               std::uint32_t actor) {
  if (choice_hook_ != nullptr && when < now_) {
    // Slack dispatch may have advanced the clock past a time this caller
    // captured before yielding; the event is simply due immediately.
    when = now_;
  }
  LSL_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  std::uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    LSL_ASSERT_MSG(slot <= kSlotMask, "too many concurrent events");
    slots_.push_back(SlotState{});
    if ((slot >> kActionChunkShift) == action_chunks_.size()) {
      action_chunks_.emplace_back(new Action[kActionChunkSize]);
    }
  }
  const EventId id{(slot + 1) |
                   (static_cast<std::uint64_t>(slots_[slot].gen) << 32U)};
  LSL_ASSERT_MSG(next_seq_ < (1ULL << 40U), "event sequence overflow");
  const std::uint64_t key = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].key = key;
  slots_[slot].tag = tag.id();
  action_of(slot) = std::move(action);
  heap_push(Entry{when, key});
  ++events_scheduled_;
  ++live_events_;
  if (live_events_ > queue_high_water_) {
    queue_high_water_ = live_events_;
  }
  ++tag_counts_[tag.id()];
  if (choice_hook_ != nullptr) {
    if (slot_meta_.size() < slots_.size()) {
      slot_meta_.resize(slots_.size());
    }
    slot_meta_[slot] = SlotMeta{tag.name(), actor};
  }
  return id;
}

EventId Simulator::schedule_after(SimTime delay, Action action, Tag tag,
                                  std::uint32_t actor) {
  LSL_ASSERT_MSG(delay >= SimTime::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(action), tag, actor);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const std::uint64_t slot = slot_of(id.raw);
  // A slot index never issued, or a generation that has since advanced
  // (the event fired, was cancelled, or the slot was reused), is stale.
  if (slot >= slots_.size() || slots_[slot].gen != gen_of(id.raw)) {
    return false;
  }
  if (slots_[slot].key == dispatching_key_) {
    // The event is firing right now (an action cancelling itself). It has
    // already left the heap and its closure must keep executing; report it
    // as already-run.
    return false;
  }
  retire_slot(slot);
  slots_[slot].key = 0;  // the heap corpse must stop matching
  --live_events_;
  ++events_cancelled_;
  // Move the closure out before destroying it: its destructor may re-enter
  // the kernel (schedule, cancel), and by now the slot is fully retired.
  const Action dead = std::move(action_of(slot));
  // The dead heap key is dropped lazily when it surfaces at the top -- but
  // when corpses outnumber live entries, arm/cancel churn (TCP timers) is
  // accumulating them faster than pops retire them, so compact.
  if (heap_.size() > 64 && heap_.size() > 2 * live_events_) {
    compact_heap();
  }
  return true;
}

bool Simulator::settle_top() {
  while (!heap_.empty()) {
    if (entry_live(heap_.front())) {
      return true;
    }
    heap_pop_top();  // cancelled: generation moved on, drop the corpse
  }
  return false;
}

bool Simulator::step() {
  if (!settle_top()) {
    return false;
  }
  if (choice_hook_ != nullptr) {
    dispatch_choice(SimTime::max());
    return true;
  }
  if (profiling_) {
    const std::uint8_t tag = slots_[heap_.front().key & kSlotMask].tag;
    const double start = wall_now();
    dispatch_top();
    const double elapsed = wall_now() - start;
    wall_seconds_ += elapsed;
    layer_wall(tag) += elapsed;
    return true;
  }
  dispatch_top();
  return true;
}

void Simulator::dispatch_top() {
  const Entry top = heap_.front();
  const std::uint64_t slot = top.key & kSlotMask;
  heap_pop_top();
  LSL_ASSERT(top.when >= now_);
  now_ = top.when;
  ++events_executed_;
  // Invoke in place: chunked storage is pinned, so the reference survives
  // any scheduling the action does (which may grow slots_ / heap_), and the
  // per-event closure move-out is avoided. cancel() treats the in-flight
  // key as already fired, so nothing destroys the closure mid-call.
  Action& action = action_of(slot);
  const std::uint64_t enclosing = dispatching_key_;
  dispatching_key_ = top.key;
  action();
  dispatching_key_ = enclosing;
  // Retire after the call so the action's own slot is not recycled under
  // it. The key can only have stopped matching via a nested run() whose
  // events cancelled this one -- then the cancel already retired the slot.
  if (slots_[slot].key == top.key) {
    retire_slot(slot);
    --live_events_;
    action.reset();
  }
}

// ---------------------------------------------------------------------------
// Choice-hook (model-checking) dispatch. Everything below runs only while a
// hook is installed; the plain dispatch path above is untouched.

void Simulator::set_choice_hook(ChoiceHook* hook, SimTime slack) {
  choice_hook_ = hook;
  choice_slack_ = slack;
  if (hook != nullptr && slot_meta_.size() < slots_.size()) {
    slot_meta_.resize(slots_.size());
  }
}

ReadyEvent Simulator::view_of(const Entry& e) const {
  ReadyEvent view;
  view.seq = e.key >> kSlotBits;
  view.when = e.when;
  const std::uint64_t slot = e.key & kSlotMask;
  if (slot < slot_meta_.size()) {
    view.category = slot_meta_[slot].category;
    view.actor = slot_meta_[slot].actor;
  }
  return view;
}

void Simulator::collect_ready(std::size_t i, SimTime window_end) {
  if (i >= heap_.size() || heap_[i].when > window_end) {
    return;  // the whole subtree is later than the window
  }
  if (entry_live(heap_[i])) {
    ready_entries_.push_back(heap_[i]);
  }
  const std::size_t first_child = 4 * i + 1;
  for (std::size_t c = first_child; c < first_child + 4; ++c) {
    collect_ready(c, window_end);
  }
}

void Simulator::dispatch_choice(SimTime limit) {
  const Entry top = heap_.front();
  SimTime window_end = top.when;
  if (choice_slack_ > SimTime::zero()) {
    window_end = top.when + choice_slack_;
    if (window_end > limit) {
      window_end = limit;
    }
    if (window_end < top.when) {
      window_end = top.when;  // overflow / limit-below-top guard
    }
  }
  ready_entries_.clear();
  collect_ready(0, window_end);
  // The top is live and inside the window, so there is at least one entry.
  std::sort(ready_entries_.begin(), ready_entries_.end(),
            [](const Entry& a, const Entry& b) { return a.before(b); });
  // Bound what the hook sees: beyond ~16 concurrent candidates the branch
  // factor is noise, and later events stay available at the next step.
  constexpr std::size_t kMaxReadySet = 16;
  if (ready_entries_.size() > kMaxReadySet) {
    ready_entries_.resize(kMaxReadySet);
  }
  std::size_t pick = 0;
  if (ready_entries_.size() > 1) {
    ready_view_.clear();
    for (const Entry& e : ready_entries_) {
      ready_view_.push_back(view_of(e));
    }
    pick = choice_hook_->choose(ready_view_);
    LSL_ASSERT_MSG(pick < ready_entries_.size(), "choice out of range");
  }
  const Entry chosen = ready_entries_[pick];
  const ReadyEvent fired = view_of(chosen);
  dispatch_entry(chosen);
  choice_hook_->dispatched(fired);
}

void Simulator::dispatch_entry(const Entry& e) {
  // Locate the entry; with no slack it is at or near the top. A linear scan
  // is fine on this path -- hook-mode runs trade throughput for coverage.
  std::size_t idx = 0;
  while (idx < heap_.size() && heap_[idx].key != e.key) {
    ++idx;
  }
  LSL_ASSERT_MSG(idx < heap_.size(), "chosen entry vanished from heap");
  if (idx == heap_.size() - 1) {
    heap_.pop_back();
  } else {
    heap_[idx] = heap_.back();
    heap_.pop_back();
    // The replacement came from a leaf: it can belong below or (when idx is
    // in a different subtree) above its new position.
    if (idx > 0 && heap_[idx].before(heap_[(idx - 1) / 4])) {
      sift_up(idx);
    } else {
      sift_down(idx);
    }
  }
  const std::uint64_t slot = e.key & kSlotMask;
  if (e.when > now_) {
    // Slack dispatch can fire events out of timestamp order; the clock only
    // ever moves forward, so a late-fired earlier event runs "now".
    now_ = e.when;
  }
  ++events_executed_;
  Action& action = action_of(slot);
  const std::uint64_t enclosing = dispatching_key_;
  dispatching_key_ = e.key;
  action();
  dispatching_key_ = enclosing;
  if (slots_[slot].key == e.key) {
    retire_slot(slot);
    --live_events_;
    action.reset();
  }
}

std::uint64_t Simulator::run(SimTime limit) {
  stop_requested_ = false;
  const double wall_start = profiling_ ? wall_now() : 0.0;
  // Profiling charges the wall time from one dispatch's end to the next's
  // to the later event's layer: one clock read per event.
  double mark = wall_start;
  std::uint64_t executed = 0;
  while (!stop_requested_ && settle_top()) {
    if (heap_.front().when > limit) {
      // Put time forward to the limit but not beyond; the event stays queued.
      now_ = limit;
      break;
    }
    if (choice_hook_ != nullptr) {
      dispatch_choice(limit);
    } else if (profiling_) {
      const std::uint8_t tag = slots_[heap_.front().key & kSlotMask].tag;
      dispatch_top();
      const double t = wall_now();
      layer_wall(tag) += t - mark;
      mark = t;
    } else {
      dispatch_top();
    }
    ++executed;
  }
  if (profiling_) {
    wall_seconds_ += wall_now() - wall_start;
  }
  return executed;
}

KernelProfile Simulator::profile() const {
  KernelCounts counts;
  add_counts_to(counts);
  return counts.profile();
}

void Simulator::add_counts_to(KernelCounts& out) const {
  KernelCounts mine;
  mine.events_scheduled = events_scheduled_;
  mine.events_executed = events_executed_;
  mine.events_cancelled = events_cancelled_;
  mine.queue_high_water = queue_high_water_;
  mine.sim_time = now_;
  mine.wall_seconds = wall_seconds_;
  mine.tag_counts = tag_counts_;
  mine.layer_wall_seconds = layer_wall_;
  out.add(mine);
}

}  // namespace lsl::sim
