// Session-layer fault tolerance (paper section 6 future work: depot failure
// tolerance).
//
// A ReliableTransfer wraps an LslSource with the source-side recovery loop:
//
//   detect    peer abort / reset, connect timeout, or a stall watchdog on
//             acked-byte progress (while sending) and on the sink's
//             committed offset (after the local send finishes);
//   back off  capped exponential backoff with deterministic seeded jitter;
//   reroute   the failed attempt's depots are blacklisted and the route
//             provider (typically the MMP scheduler with those nodes
//             excluded) picks an alternate path, degrading to the direct
//             path when none exists;
//   resume    before relaunching, the sink is probed with a kOffsetQuery and
//             the resend starts at its committed offset, not byte 0.
//
// The same probe-and-resume machinery also powers *planned* handovers
// (reroute_to): when the scheduler's advisor finds a better mid-transfer
// path, the source drains to the sink's committed offset and splices the
// new relay chain in -- no failure, no blacklist, no retry consumed.
//
// End-to-end completion is still observed at the sink depot; the deployment
// wires its on_session_complete callback to notify_delivered().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lsl/endpoint.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"
#include "tcp/stack.hpp"
#include "util/rng.hpp"

namespace lsl::session {

/// Each retry waits this many times longer than the one before, up to
/// RecoveryConfig::max_backoff.
inline constexpr double kBackoffMultiplier = 2.0;

struct RecoveryConfig {
  /// When false the first detected failure is terminal (no retries); the
  /// detection machinery still runs so failures are reported, not hung.
  bool enabled = true;
  int max_retries = 8;
  SimTime initial_backoff = SimTime::milliseconds(250);
  SimTime max_backoff = SimTime::seconds(10);
  /// Uniform jitter fraction: each delay is scaled by 1 +- jitter.
  double backoff_jitter = 0.25;
  /// No acked-byte (or committed-offset) progress for this long = failure.
  /// Also bounds how long an offset probe may hang.
  SimTime stall_timeout = SimTime::seconds(10);
};

/// Process-wide recovery instruments in the global metrics registry.
struct RecoveryMetrics {
  explicit RecoveryMetrics(obs::Registry& reg)
      : failures_detected(&reg.counter("lsl.recovery.failures_detected")),
        retries(&reg.counter("lsl.recovery.retries")),
        sessions_recovered(&reg.counter("lsl.recovery.sessions_recovered")),
        sessions_failed(&reg.counter("lsl.recovery.sessions_failed")),
        depots_blacklisted(&reg.counter("lsl.recovery.depots_blacklisted")),
        offset_probes(&reg.counter("lsl.recovery.offset_probes")),
        resumed_bytes_saved(&reg.counter("lsl.recovery.resumed_bytes_saved")),
        planned_handovers(&reg.counter("lsl.recovery.planned_handovers")) {}

  obs::Counter* failures_detected;
  obs::Counter* retries;
  obs::Counter* sessions_recovered;
  obs::Counter* sessions_failed;
  obs::Counter* depots_blacklisted;
  obs::Counter* offset_probes;
  obs::Counter* resumed_bytes_saved;
  obs::Counter* planned_handovers;
};

/// Picks the relay path for a retry given the depots blacklisted so far.
/// Returning an empty vector degrades to the direct path. When absent, the
/// default drops blacklisted hops from the original via list.
using RouteProvider = std::function<std::vector<net::NodeId>(
    const std::vector<net::NodeId>& blacklist)>;

class ReliableTransfer : public std::enable_shared_from_this<ReliableTransfer> {
 public:
  using Ptr = std::shared_ptr<ReliableTransfer>;

  enum class Outcome { kPending, kCompleted, kFailed };

  /// Fired once, when the sink reports full delivery (via notify_delivered).
  std::function<void()> on_complete;
  /// Fired once, when retries are exhausted (or recovery is disabled).
  std::function<void()> on_failed;

  /// Launch the first attempt. Unicast, single-stream transfers only.
  static Ptr start(tcp::TcpStack& stack, const TransferSpec& spec,
                   const RecoveryConfig& config, Rng& rng,
                   RouteProvider route_provider = nullptr);

  /// Wire the sink's completion signal here (idempotent).
  void notify_delivered();

  /// Planned mid-transfer handover onto `new_via` (sched::RouteAdvisor's
  /// apply hook). Drains the in-flight attempt to the sink's committed
  /// offset -- the same kOffsetQuery probe failure recovery resumes with --
  /// then relaunches on the new relay chain. Unlike failure recovery this
  /// blacklists nothing and consumes no retry. Returns false without side
  /// effects when the transfer cannot take the handover right now: already
  /// done or draining elsewhere (backoff/probe in flight), the local send
  /// has finished (remaining bytes are past the source), the via is
  /// unchanged, or a requested hop is blacklisted.
  bool reroute_to(const std::vector<net::NodeId>& new_via);

  [[nodiscard]] const SessionId& session_id() const { return id_; }
  [[nodiscard]] Outcome outcome() const { return outcome_; }
  [[nodiscard]] int retries() const { return retries_; }
  /// Completed, but only after at least one retry.
  [[nodiscard]] bool recovered() const {
    return outcome_ == Outcome::kCompleted && retries_ > 0;
  }
  [[nodiscard]] const std::vector<net::NodeId>& blacklist() const {
    return blacklist_;
  }
  /// The sink-committed offset the latest resume started from.
  [[nodiscard]] std::uint64_t committed_offset() const { return committed_; }
  /// Planned handovers taken (reroute_to calls that spliced a new path).
  [[nodiscard]] std::uint64_t handovers() const { return handovers_; }
  /// Relay chain of the active (or pending) attempt.
  [[nodiscard]] const std::vector<net::NodeId>& current_via() const {
    return current_via_;
  }
  /// True while a reroute_to would be accepted (modulo via checks).
  [[nodiscard]] bool reroutable() const {
    return outcome_ == Outcome::kPending && state_ == State::kRunning &&
           !local_send_done_;
  }

 private:
  enum class State { kRunning, kBackoff, kProbing, kDone };
  enum class ProbePurpose { kWatchdog, kRelaunch, kHandover };

  ReliableTransfer(tcp::TcpStack& stack, TransferSpec spec,
                   RecoveryConfig config, Rng rng, RouteProvider provider);

  void launch_attempt();
  void detach_source();
  void on_failure(const char* reason);
  void on_stall_tick();
  void start_probe(ProbePurpose purpose);
  void probe_read();
  void probe_finish(std::optional<std::uint64_t> offset);
  void relaunch_with(std::uint64_t sink_committed);
  void finish_failed();
  [[nodiscard]] SimTime next_backoff();

  // Causal span emission (obs/span.hpp). The transfer owns one open span
  // per layer at a time; end_*_span helpers are idempotent so every exit
  // path (delivered, failed, handover) can close without double-ends.
  [[nodiscard]] std::uint64_t span_session() const;
  void end_attempt_span(const char* reason);
  void end_probe_span(const char* reason, double value = 0.0);
  void end_backoff_span();
  void end_handover_span(const char* reason);
  void end_transfer_span(const char* reason);

  tcp::TcpStack& stack_;
  sim::Simulator& sim_;
  TransferSpec spec_;  ///< original request (via = the preferred route)
  RecoveryConfig config_;
  Rng rng_;  ///< private stream for backoff jitter
  RouteProvider provider_;
  SessionId id_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t committed_ = 0;  ///< sink-committed bytes we know of
  std::uint64_t saved_accounted_ = 0;
  std::vector<net::NodeId> current_via_;
  std::vector<net::NodeId> blacklist_;
  std::vector<net::NodeId> handover_via_;  ///< pending reroute_to target
  std::uint64_t handovers_ = 0;
  LslSource::Ptr source_;
  bool local_send_done_ = false;
  std::uint64_t last_acked_ = 0;
  /// Sink-consumed bytes seen by the most recent watchdog probe.
  std::uint64_t probe_watermark_ = 0;
  State state_ = State::kRunning;
  Outcome outcome_ = Outcome::kPending;
  int retries_ = 0;
  sim::Timer stall_timer_;
  sim::Timer backoff_timer_;
  // In-flight offset probe (one at a time).
  tcp::Connection::Ptr probe_conn_;
  std::vector<std::byte> probe_buf_;
  std::optional<SessionHeader> probe_header_;
  ProbePurpose probe_purpose_ = ProbePurpose::kWatchdog;
  RecoveryMetrics* metrics_ = nullptr;
  // Open causal spans (0 = none). last_attempt_span_ threads follows-from
  // links across retries and handovers (the failover chain).
  std::uint64_t transfer_span_ = 0;
  std::uint64_t attempt_span_ = 0;
  std::uint64_t last_attempt_span_ = 0;
  std::uint64_t probe_span_ = 0;
  std::uint64_t backoff_span_ = 0;
  std::uint64_t handover_span_ = 0;
};

}  // namespace lsl::session
