// Causal span layer: typed, parent/child-linked spans over transfer
// lifecycles -- the repo's one event record. It feeds --explain, the
// flight-recorder post-mortems and the Chrome trace export (lslsim --trace).
//
// The span model follows the session stack top-down:
//
//   Session -> Transfer -> Attempt -> {Connect, Stream, Stall, Backoff,
//                                      Probe, Handover, Resume, RtoWait}
//
// plus global (session-less) context spans: RouteDecision verdicts from the
// scheduler's advisor, injected FaultWindows, and NWS ForecastEpochs.
// Attempts carry follows-from links to the attempt they resume, so the
// failover chain of a transfer (attempt 0 -> stall -> backoff -> attempt 1
// -> handover -> attempt 2 ...) is walkable from the event stream alone.
//
// Events are held in one ring per session plus one global ring. Two
// recording modes differ only in the ring capacity:
//   * unbounded (capacity 0): rings never evict -- the full log for
//     --explain time accounting, the Chrome trace and the span tests; and
//   * flight recorder (capacity N): each ring keeps its most recent N
//     events, cheap enough to leave on for every lslsim run and dumped as a
//     post-mortem on failure.
//
// Span ids are assigned by the recorder (monotonic from 1), never derived
// from pointers or wall time, so runs are bit-for-bit reproducible and
// per-trial recorders can be rebased and merged in trial order exactly like
// obs::Registry (docs/performance.md).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace lsl::obs {

enum class SpanKind : std::uint8_t {
  kSession,        ///< harness-level transfer record (launch -> outcome)
  kTransfer,       ///< one ReliableTransfer (all attempts)
  kAttempt,        ///< one launch of the payload over one relay chain
  kConnect,        ///< TCP handshake of an attempt's source connection
  kStream,         ///< established source connection moving payload
  kStall,          ///< watchdog window that expired without progress
  kBackoff,        ///< capped jittered wait between failure and re-probe
  kProbe,          ///< kOffsetQuery round-trip to the sink
  kHandover,       ///< planned reroute: drain + probe + splice (PR 5)
  kResume,         ///< relaunch point, value = sink-committed offset
  kRtoWait,        ///< dead air ended by a retransmission timeout
  kRouteDecision,  ///< one advisor verdict, reason = decision-ladder rung
  kFaultWindow,    ///< injected fault lifetime (apply -> heal)
  kForecastEpoch,  ///< one NWS measure -> matrix -> schedule tick
};

[[nodiscard]] const char* to_string(SpanKind kind);

enum class SpanPhase : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kComplete,  ///< retroactive span with explicit duration, ts = start
};

[[nodiscard]] char to_char(SpanPhase phase);

struct SpanEvent {
  SimTime ts;                     ///< simulated time (start, for kComplete)
  SimTime dur = SimTime::zero();  ///< kComplete only
  /// Recorder-assigned id; kEnd events repeat the id of their kBegin.
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;   ///< enclosing span (0 = root)
  std::uint64_t follows = 0;  ///< follows-from link (0 = none)
  /// Session correlation hash (SessionIdHash); 0 = global context event.
  std::uint64_t session = 0;
  SpanKind kind = SpanKind::kSession;
  SpanPhase phase = SpanPhase::kInstant;
  /// Static-storage detail string (failure reason, probe purpose, advisor
  /// verdict); never owned, must outlive the recorder -- literals only.
  const char* reason = "";
  double value = 0.0;  ///< kind-specific payload (offset, bytes, seconds)
};

class SpanRecorder {
 public:
  /// capacity 0 keeps every event (use for --explain / tests); capacity N
  /// keeps the most recent N events per session plus N global events (the
  /// always-on flight recorder).
  explicit SpanRecorder(std::size_t per_session_capacity = 0);

  /// Records `event`, assigning a fresh span id when event.span_id == 0 and
  /// the phase opens a span (kBegin/kComplete/kInstant). Returns the id.
  std::uint64_t record(SpanEvent event);

  std::uint64_t begin(SimTime t, SpanKind kind, std::uint64_t session,
                      std::uint64_t parent = 0, std::uint64_t follows = 0,
                      const char* reason = "", double value = 0.0) {
    return record({.ts = t, .parent = parent, .follows = follows,
                   .session = session, .kind = kind,
                   .phase = SpanPhase::kBegin, .reason = reason,
                   .value = value});
  }
  void end(SimTime t, SpanKind kind, std::uint64_t span_id,
           std::uint64_t session, const char* reason = "",
           double value = 0.0) {
    record({.ts = t, .span_id = span_id, .session = session, .kind = kind,
            .phase = SpanPhase::kEnd, .reason = reason, .value = value});
  }
  std::uint64_t instant(SimTime t, SpanKind kind, std::uint64_t session,
                        std::uint64_t parent = 0, std::uint64_t follows = 0,
                        const char* reason = "", double value = 0.0) {
    return record({.ts = t, .parent = parent, .follows = follows,
                   .session = session, .kind = kind,
                   .phase = SpanPhase::kInstant, .reason = reason,
                   .value = value});
  }
  std::uint64_t complete(SimTime start, SimTime duration, SpanKind kind,
                         std::uint64_t session, std::uint64_t parent = 0,
                         const char* reason = "", double value = 0.0) {
    return record({.ts = start, .dur = duration, .parent = parent,
                   .session = session, .kind = kind,
                   .phase = SpanPhase::kComplete, .reason = reason,
                   .value = value});
  }

  [[nodiscard]] bool bounded() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t per_session_capacity() const { return capacity_; }
  /// Every record() ever made, including ring-evicted ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return next_seq_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const;

  /// The id of the currently open kSession span for `session` (0 when
  /// none): lets lower layers parent their roots without plumbing ids
  /// through every constructor.
  [[nodiscard]] std::uint64_t session_root(std::uint64_t session) const;

  /// Every held event in record order (rings are re-interleaved by their
  /// global record sequence, so the result is time-ordered).
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;
  /// Held events of one session plus the global context events, in record
  /// order -- the input the post-mortem and per-session --explain use.
  [[nodiscard]] std::vector<SpanEvent> session_events(
      std::uint64_t session) const;
  /// Distinct session hashes with held events, in first-seen order.
  [[nodiscard]] std::vector<std::uint64_t> sessions() const;

  void clear();

  /// Human-readable dump of one session's recent history (the flight
  /// recorder's crash artifact): one line per event with causal links.
  [[nodiscard]] std::string post_mortem(std::uint64_t session) const;

  /// Chrome trace_event JSON Array Format (loadable in Perfetto), one
  /// event per held span event in record order: name = kind, ph = phase
  /// (B/E/i/X), ts/dur in microseconds, and every other field in args.
  /// Each span tree gets its own track (tid = the root span's id), so
  /// overlapping trees never interleave their B/E pairs; instants without a
  /// parent share track 0.
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

  /// Fold another recorder's held events into this one, rebasing span ids
  /// past ours so merged streams never collide. The parallel trial engine
  /// calls this in trial order; serial and parallel runs produce identical
  /// merged streams because ids restart from 1 in every trial recorder.
  void append_from(const SpanRecorder& other);

 private:
  struct Slot {
    SpanEvent event;
    std::uint64_t seq = 0;  ///< global record order across all rings
  };

  void push(const SpanEvent& event);
  /// Held events of the rings whose session hash `keep` accepts, in record
  /// order.
  template <typename Keep>
  [[nodiscard]] std::vector<SpanEvent> gather(Keep keep) const;

  std::size_t capacity_;  ///< events per ring; 0 = rings never evict
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  /// One ring per session hash (0 = global events).
  std::map<std::uint64_t, std::deque<Slot>> rings_;
  /// Open kSession spans, for session_root(). Keyed by session hash.
  std::map<std::uint64_t, std::uint64_t> open_sessions_;
  /// Session hashes in the order their rings were created.
  std::vector<std::uint64_t> session_order_;
};

/// Concatenated post_mortem() dumps for every session held by `recorder`.
/// With only_troubled, restricted to sessions whose kSession/kTransfer span
/// ended "failed" or never closed at all -- the flight recorder's crash
/// filter (lslsim on failure, the model checker on every counterexample).
[[nodiscard]] std::string post_mortem_all(const SpanRecorder& recorder,
                                          bool only_troubled);

/// The active span recorder for this thread: a thread-scoped recorder when
/// one is installed (see ScopedSpanRecorder), else the process-wide one;
/// nullptr when span recording is off. Emission sites cost one null check
/// when off.
[[nodiscard]] SpanRecorder* spans();
void set_spans(SpanRecorder* recorder);

/// Redirects spans() on the current thread for the scope's lifetime
/// (recorder may be nullptr to silence span recording). The parallel trial
/// engine gives each trial its own recorder and appends them to the main
/// recorder post-hoc in trial order. Nests.
class ScopedSpanRecorder {
 public:
  explicit ScopedSpanRecorder(SpanRecorder* recorder);
  ~ScopedSpanRecorder();
  ScopedSpanRecorder(const ScopedSpanRecorder&) = delete;
  ScopedSpanRecorder& operator=(const ScopedSpanRecorder&) = delete;

 private:
  SpanRecorder* previous_;
  bool had_previous_;
};

}  // namespace lsl::obs
