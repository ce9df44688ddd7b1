#include "lsl/recovery.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "mc/hooks.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::session {

namespace {

/// Rng fork salt from a session id (first eight bytes, little-endian).
std::uint64_t id_salt(const SessionId& id) {
  std::uint64_t salt = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    salt |= static_cast<std::uint64_t>(id.bytes[i]) << (8 * i);
  }
  return salt;
}

const sim::Tag kRecoveryTag{"lsl.recovery", sim::Layer::kLsl};

}  // namespace

ReliableTransfer::ReliableTransfer(tcp::TcpStack& stack, TransferSpec spec,
                                   RecoveryConfig config, Rng rng,
                                   RouteProvider provider)
    : stack_(stack),
      sim_(stack.simulator()),
      spec_(std::move(spec)),
      config_(config),
      rng_(rng),
      provider_(std::move(provider)),
      total_bytes_(spec_.payload_bytes),
      current_via_(spec_.via),
      stall_timer_(sim_, [this] { on_stall_tick(); }, kRecoveryTag),
      backoff_timer_(
          sim_,
          [this] {
            end_backoff_span();
            start_probe(ProbePurpose::kRelaunch);
          },
          kRecoveryTag),
      metrics_(obs::bundle<RecoveryMetrics>()) {}

ReliableTransfer::Ptr ReliableTransfer::start(tcp::TcpStack& stack,
                                              const TransferSpec& spec,
                                              const RecoveryConfig& config,
                                              Rng& rng,
                                              RouteProvider route_provider) {
  LSL_ASSERT_MSG(spec.dst != net::kInvalidNode, "recovery needs a unicast dst");
  LSL_ASSERT_MSG(spec.streams == 1 && !spec.async_session &&
                     !spec.multicast.has_value(),
                 "recovery composes with single-stream unicast transfers");
  TransferSpec bound = spec;
  if (!bound.session_id.has_value()) {
    bound.session_id = SessionId::random(rng);
  }
  const SessionId id = *bound.session_id;
  auto transfer = Ptr(new ReliableTransfer(stack, std::move(bound), config,
                                           rng.fork(id_salt(id)),
                                           std::move(route_provider)));
  transfer->id_ = id;
  if (obs::SpanRecorder* sr = obs::spans()) {
    const std::uint64_t sess = SessionIdHash{}(id);
    transfer->transfer_span_ =
        sr->begin(stack.simulator().now(), obs::SpanKind::kTransfer, sess,
                  sr->session_root(sess), 0, "",
                  static_cast<double>(transfer->total_bytes_));
  }
  transfer->launch_attempt();
  return transfer;
}

void ReliableTransfer::launch_attempt() {
  if (mc::ProtocolObserver* po = mc::observer()) {
    // Observation point: an attempt must never ride a blacklisted depot
    // (mc::Invariants cross-checks via against the live blacklist).
    po->on_attempt(SessionIdHash{}(id_), current_via_, blacklist_);
  }
  state_ = State::kRunning;
  TransferSpec attempt = spec_;
  attempt.session_id = id_;
  attempt.via = current_via_;
  attempt.resume_offset = committed_;
  attempt.payload_bytes =
      committed_ < total_bytes_ ? total_bytes_ - committed_ : 0;

  source_ = LslSource::start(stack_, attempt, rng_);
  local_send_done_ = false;
  last_acked_ = 0;
  probe_watermark_ = committed_;

  auto self = shared_from_this();
  source_->on_sent = [self] { self->local_send_done_ = true; };
  tcp::Connection* conn = source_->connection();
  LSL_ASSERT(conn != nullptr);
  if (obs::SpanRecorder* sr = obs::spans()) {
    attempt_span_ = sr->begin(sim_.now(), obs::SpanKind::kAttempt,
                              span_session(), transfer_span_,
                              last_attempt_span_, "",
                              static_cast<double>(committed_));
    last_attempt_span_ = attempt_span_;
    conn->set_span_context(span_session(), attempt_span_);
  }
  conn->on_error = [self](tcp::ConnectionError e) {
    self->on_failure(tcp::to_string(e));
  };
  conn->on_closed = [self] {
    // A clean close after the local send finished is the normal wind-down;
    // anything earlier means the first hop dropped us without explanation.
    if (!self->local_send_done_) {
      self->on_failure("closed");
    }
  };
  stall_timer_.arm(config_.stall_timeout);
}

void ReliableTransfer::detach_source() {
  if (source_ == nullptr) {
    return;
  }
  source_->on_sent = nullptr;
  if (tcp::Connection* conn = source_->connection()) {
    conn->on_error = nullptr;
    conn->on_closed = nullptr;
    conn->end_spans("detached");
  }
}

void ReliableTransfer::on_failure(const char* reason) {
  if (outcome_ != Outcome::kPending ||
      (state_ != State::kRunning && state_ != State::kProbing)) {
    return;
  }
  LSL_DEBUG("recovery %s: failure (%s), attempt %d", id_.str().c_str(),
            reason, retries_);
  if (metrics_ != nullptr) {
    metrics_->failures_detected->inc();
  }
  if (obs::SpanRecorder* sr = obs::spans()) {
    // Stall-triggered failures cover a retroactive dead-air window: the
    // watchdog only fires after stall_timeout without progress.
    if (std::strcmp(reason, "stall") == 0 ||
        std::strcmp(reason, "delivery stalled") == 0) {
      const SimTime window = std::min(config_.stall_timeout, sim_.now());
      sr->complete(sim_.now() - window, window, obs::SpanKind::kStall,
                   span_session(), attempt_span_, reason);
    }
  }
  end_probe_span("aborted");
  stall_timer_.cancel();
  detach_source();
  if (source_ != nullptr) {
    if (tcp::Connection* conn = source_->connection()) {
      conn->abort();
    }
    source_.reset();
  }
  // Conservatively blacklist every depot of the failed attempt: the source
  // cannot tell which relay in the chain died.
  for (const net::NodeId hop : current_via_) {
    if (std::find(blacklist_.begin(), blacklist_.end(), hop) ==
        blacklist_.end()) {
      blacklist_.push_back(hop);
      if (metrics_ != nullptr) {
        metrics_->depots_blacklisted->inc();
      }
    }
  }
  end_attempt_span(reason);
  if (!config_.enabled || retries_ >= config_.max_retries) {
    finish_failed();
    return;
  }
  ++retries_;
  if (metrics_ != nullptr) {
    metrics_->retries->inc();
  }
  state_ = State::kBackoff;
  if (obs::SpanRecorder* sr = obs::spans()) {
    backoff_span_ =
        sr->begin(sim_.now(), obs::SpanKind::kBackoff, span_session(),
                  transfer_span_, 0, "", static_cast<double>(retries_));
  }
  backoff_timer_.arm(next_backoff());
}

SimTime ReliableTransfer::next_backoff() {
  double seconds = config_.initial_backoff.to_seconds();
  for (int i = 1; i < retries_; ++i) {
    seconds *= kBackoffMultiplier;
  }
  seconds = std::min(seconds, config_.max_backoff.to_seconds());
  const double jitter =
      1.0 + config_.backoff_jitter * (2.0 * rng_.next_double() - 1.0);
  return std::max(SimTime::from_seconds(seconds * jitter),
                  SimTime::milliseconds(1));
}

void ReliableTransfer::on_stall_tick() {
  if (outcome_ != Outcome::kPending) {
    return;
  }
  if (state_ == State::kProbing) {
    // The probe itself hung (sink unreachable); give up on it and let the
    // purpose-specific path continue with what we already know.
    if (probe_conn_ != nullptr) {
      probe_conn_->abort();
    }
    if (state_ == State::kProbing) {  // abort may have re-entered
      probe_finish(std::nullopt);
    }
    return;
  }
  if (state_ != State::kRunning) {
    return;
  }
  if (!local_send_done_) {
    tcp::Connection* conn = source_ ? source_->connection() : nullptr;
    const std::uint64_t acked = conn != nullptr ? conn->acked_payload() : 0;
    if (acked > last_acked_) {
      last_acked_ = acked;
      stall_timer_.arm(config_.stall_timeout);
      return;
    }
    on_failure("stall");
    return;
  }
  // Local send complete but no delivery signal yet: poll the sink's
  // committed offset to distinguish "still draining" from "lost".
  start_probe(ProbePurpose::kWatchdog);
}

void ReliableTransfer::start_probe(ProbePurpose purpose) {
  if (outcome_ != Outcome::kPending) {
    return;
  }
  state_ = State::kProbing;
  probe_purpose_ = purpose;
  probe_buf_.clear();
  probe_header_.reset();
  if (metrics_ != nullptr) {
    metrics_->offset_probes->inc();
  }
  if (obs::SpanRecorder* sr = obs::spans()) {
    const char* why = purpose == ProbePurpose::kWatchdog   ? "watchdog"
                      : purpose == ProbePurpose::kRelaunch ? "relaunch"
                                                           : "handover";
    const std::uint64_t parent = purpose == ProbePurpose::kHandover
                                     ? handover_span_
                                     : (attempt_span_ != 0 ? attempt_span_
                                                           : transfer_span_);
    probe_span_ = sr->begin(sim_.now(), obs::SpanKind::kProbe, span_session(),
                            parent, 0, why);
  }

  SessionHeader request;
  request.type = SessionType::kOffsetQuery;
  request.session_id = id_;
  request.src = stack_.node_id();
  request.dst = spec_.dst;
  request.dst_port = kLslPort;

  auto self = shared_from_this();
  probe_conn_ = stack_.connect(spec_.dst, kLslPort, spec_.tcp);
  tcp::Connection* conn = probe_conn_.get();
  conn->on_connected = [self, request] {
    if (self->probe_conn_ == nullptr) {
      return;
    }
    const auto bytes = encode(request);
    self->probe_conn_->write_bytes(bytes);
    self->probe_conn_->close();  // query fully stated; answer flows back
  };
  conn->on_readable = [self] { self->probe_read(); };
  conn->on_eof = [self] {
    self->probe_read();
    self->probe_finish(self->probe_header_.has_value()
                           ? std::optional<std::uint64_t>(
                                 self->probe_header_->resume_offset)
                           : std::nullopt);
  };
  conn->on_error = [self](tcp::ConnectionError) {
    self->probe_finish(std::nullopt);
  };
  conn->on_closed = [self] {
    self->probe_finish(self->probe_header_.has_value()
                           ? std::optional<std::uint64_t>(
                                 self->probe_header_->resume_offset)
                           : std::nullopt);
  };
  // Bound the probe's lifetime (covers connect hangs to a dead sink).
  stall_timer_.arm(config_.stall_timeout);
}

void ReliableTransfer::probe_read() {
  if (probe_conn_ == nullptr || probe_header_.has_value()) {
    return;
  }
  SessionHeader header;
  const auto read = [this](std::uint64_t max) {
    return probe_conn_->read(max);
  };
  // A malformed reply leaves probe_header_ empty, so the eof/closed path
  // reports no offset.
  if (read_header(read, probe_buf_, header) == HeaderRead::kHeader) {
    probe_header_ = std::move(header);
  }
}

void ReliableTransfer::probe_finish(std::optional<std::uint64_t> offset) {
  if (state_ != State::kProbing || outcome_ != Outcome::kPending) {
    return;
  }
  stall_timer_.cancel();
  if (probe_conn_ != nullptr) {
    probe_conn_->on_connected = nullptr;
    probe_conn_->on_readable = nullptr;
    probe_conn_->on_eof = nullptr;
    probe_conn_->on_error = nullptr;
    probe_conn_->on_closed = nullptr;
    probe_conn_.reset();
  }
  if (offset.has_value() && *offset > committed_) {
    committed_ = std::min(*offset, total_bytes_);
  }
  end_probe_span(offset.has_value() ? "offset" : "no-offset",
                 static_cast<double>(committed_));
  if (probe_purpose_ == ProbePurpose::kHandover) {
    // Planned handover: the drain probe pinned down what the sink has; the
    // rest moves over the new relay chain. Deliberately not relaunch_with --
    // the advisor already chose the path, the provider must not override it.
    current_via_ = handover_via_;
    handover_via_.clear();
    if (metrics_ != nullptr && committed_ > saved_accounted_) {
      metrics_->resumed_bytes_saved->inc(committed_ - saved_accounted_);
      saved_accounted_ = committed_;
    }
    LSL_DEBUG("recovery %s: handover %llu from offset %llu via %zu depots",
              id_.str().c_str(), static_cast<unsigned long long>(handovers_),
              static_cast<unsigned long long>(committed_),
              current_via_.size());
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->instant(sim_.now(), obs::SpanKind::kResume, span_session(),
                  handover_span_, last_attempt_span_, "handover",
                  static_cast<double>(committed_));
    }
    end_handover_span("spliced");
    launch_attempt();
    return;
  }
  if (probe_purpose_ == ProbePurpose::kWatchdog) {
    if (offset.has_value() && *offset > probe_watermark_) {
      // The sink consumed more bytes since the last probe; still draining.
      // A sink stalled at total (committed everything but the completion
      // signal was lost) stops advancing and falls through to a zero-byte
      // resume that forces the signal.
      probe_watermark_ = *offset;
      state_ = State::kRunning;
      stall_timer_.arm(config_.stall_timeout);
      return;
    }
    on_failure("delivery stalled");
    return;
  }
  relaunch_with(committed_);
}

void ReliableTransfer::relaunch_with(std::uint64_t sink_committed) {
  LSL_PROTO_CHECK(std::min(sink_committed, total_bytes_) >= committed_,
                  "resume offset regressed below committed");
  committed_ = std::min(sink_committed, total_bytes_);
  if (metrics_ != nullptr && committed_ > saved_accounted_) {
    metrics_->resumed_bytes_saved->inc(committed_ - saved_accounted_);
    saved_accounted_ = committed_;
  }
  if (provider_) {
    current_via_ = provider_(blacklist_);
  } else if (LSL_MC_MUTATION("skip_blacklist_filter")) {
    // Seeded bug (mutation smoke, mc_test): relaunch over the original via
    // list without dropping blacklisted depots -- reverts the guard below
    // so the explorer must flag the re-selection through on_attempt.
    current_via_ = spec_.via;
  } else {
    // Default reroute: drop blacklisted depots from the requested via list,
    // degrading to the direct path when every relay has failed.
    current_via_.clear();
    for (const net::NodeId hop : spec_.via) {
      if (std::find(blacklist_.begin(), blacklist_.end(), hop) ==
          blacklist_.end()) {
        current_via_.push_back(hop);
      }
    }
  }
  if (obs::SpanRecorder* sr = obs::spans()) {
    sr->instant(sim_.now(), obs::SpanKind::kResume, span_session(),
                transfer_span_, last_attempt_span_, "retry",
                static_cast<double>(committed_));
  }
  LSL_DEBUG("recovery %s: retry %d from offset %llu via %zu depots",
            id_.str().c_str(), retries_,
            static_cast<unsigned long long>(committed_), current_via_.size());
  launch_attempt();
}

bool ReliableTransfer::reroute_to(const std::vector<net::NodeId>& new_via) {
  if (!reroutable() || new_via == current_via_) {
    return false;
  }
  for (const net::NodeId hop : new_via) {
    if (std::find(blacklist_.begin(), blacklist_.end(), hop) !=
        blacklist_.end()) {
      return false;
    }
  }
  ++handovers_;
  if (metrics_ != nullptr) {
    metrics_->planned_handovers->inc();
  }
  // Drain: stop feeding the old path and ask the sink how far it got. The
  // relaunch in probe_finish resumes from that committed offset, so bytes
  // in flight past it are the only work resent.
  stall_timer_.cancel();
  detach_source();
  if (source_ != nullptr) {
    if (tcp::Connection* conn = source_->connection()) {
      conn->abort();
    }
    source_.reset();
  }
  end_attempt_span("handover");
  if (obs::SpanRecorder* sr = obs::spans()) {
    handover_span_ = sr->begin(sim_.now(), obs::SpanKind::kHandover,
                               span_session(), transfer_span_, 0, "",
                               static_cast<double>(handovers_));
  }
  handover_via_ = new_via;
  start_probe(ProbePurpose::kHandover);
  return true;
}

void ReliableTransfer::notify_delivered() {
  if (outcome_ != Outcome::kPending) {
    return;
  }
  outcome_ = Outcome::kCompleted;
  state_ = State::kDone;
  stall_timer_.cancel();
  backoff_timer_.cancel();
  detach_source();
  if (probe_conn_ != nullptr) {
    probe_conn_->on_connected = nullptr;
    probe_conn_->on_readable = nullptr;
    probe_conn_->on_eof = nullptr;
    probe_conn_->on_error = nullptr;
    probe_conn_->on_closed = nullptr;
    probe_conn_->abort();
    probe_conn_.reset();
  }
  if (retries_ > 0) {
    if (metrics_ != nullptr) {
      metrics_->sessions_recovered->inc();
    }
  }
  end_probe_span("abandoned");
  end_backoff_span();
  end_handover_span("abandoned");
  end_attempt_span("delivered");
  end_transfer_span("completed");
  if (on_complete) {
    on_complete();
  }
}

void ReliableTransfer::finish_failed() {
  outcome_ = Outcome::kFailed;
  state_ = State::kDone;
  stall_timer_.cancel();
  backoff_timer_.cancel();
  detach_source();
  source_.reset();
  if (metrics_ != nullptr) {
    metrics_->sessions_failed->inc();
  }
  end_probe_span("aborted");
  end_backoff_span();
  end_handover_span("aborted");
  end_attempt_span("failed");
  end_transfer_span("failed");
  if (on_failed) {
    on_failed();
  }
}

std::uint64_t ReliableTransfer::span_session() const {
  return SessionIdHash{}(id_);
}

void ReliableTransfer::end_attempt_span(const char* reason) {
  if (attempt_span_ != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kAttempt, attempt_span_,
              span_session(), reason);
    }
    attempt_span_ = 0;
  }
}

void ReliableTransfer::end_probe_span(const char* reason, double value) {
  if (probe_span_ != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kProbe, probe_span_, span_session(),
              reason, value);
    }
    probe_span_ = 0;
  }
}

void ReliableTransfer::end_backoff_span() {
  if (backoff_span_ != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kBackoff, backoff_span_,
              span_session());
    }
    backoff_span_ = 0;
  }
}

void ReliableTransfer::end_handover_span(const char* reason) {
  if (handover_span_ != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kHandover, handover_span_,
              span_session(), reason);
    }
    handover_span_ = 0;
  }
}

void ReliableTransfer::end_transfer_span(const char* reason) {
  if (transfer_span_ != 0) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      sr->end(sim_.now(), obs::SpanKind::kTransfer, transfer_span_,
              span_session(), reason);
    }
    transfer_span_ = 0;
  }
}

}  // namespace lsl::session
