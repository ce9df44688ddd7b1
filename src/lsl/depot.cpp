#include "lsl/depot.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "mc/hooks.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace lsl::session {

namespace {

const sim::Tag kDepotTag{"lsl.depot", sim::Layer::kLsl};
const sim::Tag kStoreTag{"depot.store", sim::Layer::kLsl};

}  // namespace

// ---------------------------------------------------------------------------
// Relay: one accepted session flowing through this depot.

class Depot::Relay : public std::enable_shared_from_this<Depot::Relay> {
 public:
  Relay(Depot& depot, tcp::Connection::Ptr upstream)
      : depot_(depot),
        up_(std::move(upstream)),
        accepted_at_(depot.stack_.simulator().now()) {}

  void start() {
    up_->on_readable = [this] { on_upstream_readable(); };
    up_->on_eof = [this] { on_upstream_eof(); };
    up_->on_closed = [this] { on_upstream_closed(); };
    up_->on_error = [this](tcp::ConnectionError e) { on_upstream_error(e); };
    // Data may already be buffered by the time the relay is attached.
    on_upstream_readable();
  }

  /// Forcefully terminate this session (depot shutdown).
  void abort_session() { fail(); }

  /// Report what a live delivery of `id` has received so far.
  void sync_delivery(const SessionId& id) {
    if (phase_ == Phase::kDelivering && ledger_tracked_ &&
        hdr_.session_id == id) {
      up_->sync_stream();
    }
  }

  void detach_callbacks() {
    auto clear = [](const tcp::Connection::Ptr& c) {
      if (c) {
        c->read_stream(nullptr);
        c->on_readable = nullptr;
        c->on_writable = nullptr;
        c->on_eof = nullptr;
        c->on_closed = nullptr;
        c->on_connected = nullptr;
        c->on_error = nullptr;
      }
    };
    clear(up_);
    for (auto& child : children_) {
      clear(child.conn);
    }
  }

 private:
  enum class Phase {
    kReadingHeader,
    kForwarding,  ///< store-and-forward to the next hop(s)
    kDelivering,  ///< this node is the destination
    kStoring,     ///< async session parked here
    kServingFetch,
    kServingOffset,  ///< answering a resume-offset probe
    kDone,
  };

  /// One downstream connection of a forwarded session: the next hop of a
  /// unicast session (its only child) or one child of a multicast tree.
  struct Child {
    tcp::Connection::Ptr conn;
    SessionHeader header;  ///< written ahead of the payload once connected
    /// Its early close fails the session (unicast: the only next hop); a
    /// multicast child is dropped instead and its siblings carry on.
    bool required = false;
    std::uint64_t sent = 0;  ///< payload stream offset written so far
    bool header_written = false;
    /// Closed by the peer, or by this relay (marked before the close call,
    /// so a close that aborts synchronously does not re-enter the relay).
    bool closed = false;
  };

  // ---- header ingestion --------------------------------------------------

  void on_upstream_readable() {
    if (phase_ == Phase::kReadingHeader) {
      ingest_header();
      if (phase_ == Phase::kReadingHeader) {
        return;  // still incomplete
      }
    }
    pump();
  }

  void ingest_header() {
    // Any payload that rides along in the same segment stays queued in the
    // socket for the relay pump.
    const auto read = [this](std::uint64_t max) { return up_->read(max); };
    switch (read_header(read, hdr_buf_, hdr_)) {
      case HeaderRead::kNeedMore:
        return;
      case HeaderRead::kHeader:
        begin_role();
        return;
      case HeaderRead::kMalformed:
        fail();
        return;
    }
  }

  // ---- role selection ----------------------------------------------------

  void begin_role() {
    const net::NodeId me = depot_.node_id();

    if (hdr_.type == SessionType::kFetch) {
      phase_ = Phase::kServingFetch;
      serve_fetch();
      return;
    }

    if (hdr_.type == SessionType::kOffsetQuery) {
      phase_ = Phase::kServingOffset;
      serve_offset_query();
      return;
    }

    if (hdr_.multicast.has_value()) {
      const auto index = hdr_.multicast->find(me);
      if (index.has_value()) {
        const auto kids = hdr_.multicast->children_of(*index);
        if (!kids.empty()) {
          phase_ = Phase::kForwarding;
          user_buffer_granted_ = depot_.reserve_user_memory();
          for (const net::NodeId kid : kids) {
            open_child(kid, hdr_, /*required=*/false);  // same tree to each
          }
          pump();
          return;
        }
      }
      // Leaf (or not in the tree at all): consume locally.
      phase_ = Phase::kDelivering;
      consume_payload();
      pump();
      return;
    }

    if (hdr_.dst == me) {
      phase_ = Phase::kDelivering;
      // Resumable unicast deliveries write the progress ledger and account
      // through it. Striped sessions reuse one session id across parallel
      // byte streams, so a shared scalar offset is meaningless for them.
      ledger_tracked_ = !(hdr_.stripe.has_value() && hdr_.stripe->count > 1);
      if (hdr_.resume_offset > 0) {
        // Resumed session: the source restarts the payload stream at our
        // committed offset, so account delivery on top of that base.
        resume_base_ = hdr_.resume_offset;
        ++depot_.stats_.sessions_resumed;
        if (depot_.metrics_ != nullptr) {
          depot_.metrics_->sessions_resumed->inc();
        }
      }
      consume_payload();
      pump();
      return;
    }

    if (hdr_.async_session && hdr_.loose_route.empty()) {
      // Last depot on an asynchronous session: park the payload here; the
      // receiver fetches it later by session id.
      phase_ = Phase::kStoring;
      consume_payload();
      pump();
      return;
    }

    // Unicast forwarding: loose source route first, then the route table,
    // then direct. Hops naming this depot itself are collapsed -- relaying
    // to yourself only burns connections.
    SessionHeader fwd = hdr_;
    while (!fwd.loose_route.empty() && fwd.loose_route.front() == me) {
      fwd.loose_route.erase(fwd.loose_route.begin());
    }
    net::NodeId next = hdr_.dst;
    if (!fwd.loose_route.empty()) {
      next = fwd.loose_route.front();
      fwd.loose_route.erase(fwd.loose_route.begin());
    } else if (const auto hop = depot_.routes_.next_hop(hdr_.dst);
               hop.has_value() && *hop != me) {
      next = *hop;
    }
    phase_ = Phase::kForwarding;
    user_buffer_granted_ = depot_.reserve_user_memory();
    open_child(next, std::move(fwd), /*required=*/true);
    // At flow fidelity the payload does not pass through this relay: the
    // next hop's flow is supplied by the upstream's through a buffer of the
    // upstream receive, user and downstream send buffers. This hand-off is
    // the one place the session layer tells the fidelities apart; at
    // packet fidelity the splice is invalid and the pump relays.
    splice_ = up_->splice_incoming(up_->options().recv_buffer_bytes +
                                   user_buffer_granted_ +
                                   depot_.config_.tcp.send_buffer_bytes);
    splice_live_ = splice_.id != flow::kInvalidSplice;
    pump();
  }

  void open_child(net::NodeId node, SessionHeader header, bool required) {
    const std::size_t index = children_.size();
    Child& child = children_.emplace_back();
    child.conn = depot_.stack_.connect(node, kLslPort, depot_.config_.tcp);
    child.header = std::move(header);
    child.required = required;
    if (depot_.on_downstream_open) {
      depot_.on_downstream_open(*child.conn, child.header);
    }
    child.conn->on_connected = [this, index] {
      Child& c = children_[index];
      const auto bytes = encode(c.header);
      const std::uint64_t n = c.conn->write_bytes(bytes);
      LSL_ASSERT_MSG(n == bytes.size(),
                     "send buffer must hold the session header");
      c.header_written = true;
      if (splice_.id != flow::kInvalidSplice &&
          c.conn->splice_outgoing(splice_)) {
        spliced_payload_written(c);
      }
      pump();
    };
    child.conn->on_writable = [this, index] {
      if (splice_.id != flow::kInvalidSplice) {
        spliced_payload_written(children_[index]);
      }
      pump();
    };
    child.conn->on_closed = [this, index] {
      Child& c = children_[index];
      if (phase_ == Phase::kDone || c.closed) {
        return;
      }
      c.closed = true;
      if (c.required) {
        fail();  // the next hop died mid-relay: tear the session down
      } else {
        pump();
      }
    };
  }

  /// The splice's last byte entered the next hop's send buffer: the pump
  /// would have written everything now.
  void spliced_payload_written(Child& child) {
    if (child.sent == splice_.payload) {
      return;
    }
    child.sent = splice_.payload;
    depot_.stats_.bytes_relayed += child.sent;
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->bytes_relayed->inc(child.sent);
    }
  }

  // ---- the relay pump ----------------------------------------------------

  void pump() {
    if (phase_ == Phase::kDone || phase_ == Phase::kReadingHeader) {
      return;
    }
    if (phase_ == Phase::kForwarding && splice_.id == flow::kInvalidSplice) {
      push_children();
      pull_upstream();
      push_children();
    }
    finish_if_drained();
  }

  void pull_upstream() {
    while (user_used() < user_buffer_granted_ &&
           up_->readable_bytes() > 0) {
      const std::uint64_t room = user_buffer_granted_ - user_used();
      const std::uint64_t want =
          std::min({room, kRelayChunkBytes, up_->readable_bytes()});
      const auto r = up_->read(want);
      if (r.n == 0) {
        break;
      }
      buf_high_ += r.n;
      payload_seen_ += r.n;
    }
    account_buffer();
  }

  /// Relay-buffer telemetry: occupancy gauge (high-water tracked inside) and
  /// stall time -- the span during which the buffer sits full, i.e. the
  /// downstream leg is the pipeline bottleneck and backpressure has reached
  /// the upstream socket.
  void account_buffer() {
    LSL_PROTO_CHECK(buf_base_ <= buf_high_,
                    "relay buffer window inverted (base > high)");
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->buffer_occupancy->set(
          static_cast<double>(user_used()));
    }
    const bool full =
        user_buffer_granted_ > 0 && user_used() >= user_buffer_granted_;
    const SimTime now = depot_.stack_.simulator().now();
    if (full && !stalled_) {
      stalled_ = true;
      stall_since_ = now;
    } else if (!full && stalled_) {
      stalled_ = false;
      if (depot_.metrics_ != nullptr) {
        depot_.metrics_->stall_us->inc(
            static_cast<std::uint64_t>((now - stall_since_).ns() / 1000));
      }
    }
  }

  /// Write buffered payload to every live child; the buffer frees up to the
  /// slowest one.
  void push_children() {
    std::uint64_t min_sent = buf_high_;
    for (auto& child : children_) {
      if (child.closed) {
        continue;
      }
      if (child.header_written) {
        while (child.sent < buf_high_) {
          const std::uint64_t n =
              child.conn->write_synthetic(buf_high_ - child.sent);
          if (n == 0) {
            break;
          }
          child.sent += n;
          depot_.stats_.bytes_relayed += n;
          if (depot_.metrics_ != nullptr) {
            depot_.metrics_->bytes_relayed->inc(n);
          }
        }
      }
      min_sent = std::min(min_sent, child.sent);
    }
    buf_base_ = std::max(buf_base_, min_sent);
    account_buffer();
  }

  /// Delivering and storing consume the payload as it arrives.
  void consume_payload() {
    up_->read_stream([this](std::uint64_t n) {
      payload_seen_ += n;
      if (phase_ == Phase::kDelivering) {
        deliver_chunk(n);
      }
    });
  }

  /// Hand one drained chunk to the receiving application and account it.
  /// Ledger-tracked deliveries are deduplicated against the committed
  /// offset: a resumed attempt whose resume base came from a *stale* offset
  /// probe (the race: an old relay's salvage commit lands after the probe
  /// was answered) re-sends bytes the application already consumed, and
  /// those must be dropped from delivery accounting, not counted twice.
  void deliver_chunk(std::uint64_t n) {
    const std::uint64_t hi = resume_base_ + payload_seen_;
    std::uint64_t lo = hi - n;
    if (ledger_tracked_) {
      // Live resume watermark: commit before accounting so offset probes
      // see delivery progress as it happens, and so the previous committed
      // value bounds what of this chunk is genuinely new.
      const std::uint64_t previous =
          depot_.commit_progress(hdr_.session_id, hi);
      if (!LSL_MC_MUTATION("skip_delivery_dedup")) {
        lo = std::max(lo, std::min(previous, hi));
      }
    }
    if (lo >= hi) {
      return;  // the whole chunk was already delivered by an earlier relay
    }
    const std::uint64_t fresh = hi - lo;
    depot_.stats_.bytes_delivered += fresh;
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->bytes_delivered->inc(fresh);
    }
    if (mc::ProtocolObserver* po = mc::observer();
        po != nullptr && ledger_tracked_) {
      po->on_deliver(SessionIdHash{}(hdr_.session_id), lo, hi);
    }
  }

  // ---- fetch serving (async sessions) -------------------------------------

  void serve_fetch() {
    const auto it = depot_.store_.find(hdr_.session_id);
    if (it == depot_.store_.end()) {
      LSL_WARN("depot %u: fetch for unknown session %s", depot_.node_id(),
               hdr_.session_id.str().c_str());
      fail();
      return;
    }
    const auto& [stored_header, stored_bytes] = it->second;
    SessionHeader response = stored_header;
    response.type = SessionType::kData;
    response.loose_route.clear();
    response.async_session = false;
    response.payload_bytes = stored_bytes;
    const auto bytes = encode(response);
    up_->write_bytes(bytes);
    fetch_bytes_ = stored_bytes;
    up_->on_writable = [this] { finish_fetch(); };
    if (up_->write_stream(stored_bytes)) {
      finish_fetch();
    }
  }

  /// The stored payload is queued behind the response header.
  void finish_fetch() {
    if (phase_ != Phase::kServingFetch) {
      return;
    }
    depot_.stats_.bytes_relayed += fetch_bytes_;
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->bytes_relayed->inc(fetch_bytes_);
    }
    up_->close();
    done();
  }

  // ---- resume-offset probes ------------------------------------------------

  /// Answer a kOffsetQuery: echo the header back with resume_offset set to
  /// this depot's committed byte count for the session, then close. The
  /// response rides our send direction; the relay is finished immediately
  /// (the connection drains independently of relay callbacks).
  void serve_offset_query() {
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->offset_queries->inc();
    }
    SessionHeader response;
    response.type = SessionType::kOffsetQuery;
    response.session_id = hdr_.session_id;
    response.src = depot_.node_id();
    response.dst = hdr_.src;
    response.resume_offset = depot_.committed_offset(hdr_.session_id);
    const auto bytes = encode(response);
    const std::uint64_t n = up_->write_bytes(bytes);
    LSL_ASSERT_MSG(n == bytes.size(),
                   "send buffer must hold the offset-query response");
    up_->close();
    done();
  }

  // ---- teardown ------------------------------------------------------------

  void on_upstream_eof() {
    up_eof_ = true;
    if (splice_.id != flow::kInvalidSplice) {
      // Every payload byte has arrived: the next hop can send the rest
      // on its own.
      end_splice();
      payload_seen_ = buf_base_ = buf_high_ = splice_.payload;
    }
    pump();
  }

  void on_upstream_error(tcp::ConnectionError e) {
    if (phase_ == Phase::kDone) {
      return;
    }
    LSL_DEBUG("depot %u: upstream %s mid-session", depot_.node_id(),
              tcp::to_string(e));
    note_interrupted();
    fail();
  }

  void on_upstream_closed() {
    if (phase_ == Phase::kDone) {
      return;
    }
    if (!up_eof_) {
      // Upstream terminated without a clean FIN (and without a surfaced
      // error, or we would already be done): the session cannot complete.
      note_interrupted();
      fail();
      return;
    }
    // Clean teardown can complete while we still drain; keep pumping.
    pump();
  }

  void note_interrupted() {
    ++depot_.stats_.sessions_interrupted;
    if (depot_.metrics_ != nullptr) {
      depot_.metrics_->sessions_interrupted->inc();
    }
  }

  void finish_if_drained() {
    if (phase_ == Phase::kDone || !up_eof_ || up_->readable_bytes() > 0) {
      return;
    }
    switch (phase_) {
      case Phase::kForwarding: {
        // A child is finished once closed, or once its header and every
        // buffered byte went out (a zero-byte session still needs the
        // header, so a child still connecting is not finished).
        const bool finished =
            std::ranges::all_of(children_, [this](const Child& c) {
              return c.closed || (c.header_written && c.sent == buf_high_);
            });
        if (!finished) {
          break;
        }
        for (auto& child : children_) {
          if (!child.closed) {
            child.closed = true;
            child.conn->close();
          }
        }
        up_->close();  // our send direction was never used; finish both
        ++depot_.stats_.sessions_relayed;
        if (depot_.metrics_ != nullptr) {
          depot_.metrics_->sessions_relayed->inc();
        }
        done();
        break;
      }
      case Phase::kDelivering: {
        const SessionHeader header = hdr_;
        const std::uint64_t bytes = resume_base_ + payload_seen_;
        const SimTime accepted = accepted_at_;
        // Keep the full total in the ledger (instead of erasing) so a late
        // offset probe reads "everything committed" and the source resends
        // nothing rather than everything.
        if (ledger_tracked_) {
          depot_.commit_progress(header.session_id, bytes);
        }
        up_->close();
        done();
        depot_.session_delivered(header, bytes, accepted);
        break;
      }
      case Phase::kStoring:
        depot_.schedule_store(hdr_, payload_seen_);
        up_->close();
        done();
        break;
      default:
        break;
    }
  }

  void fail() {
    if (phase_ == Phase::kDone) {
      return;
    }
    end_splice();
    if (phase_ == Phase::kDelivering) {
      // Commit whatever arrived before the failure so the source can resume
      // from here instead of byte 0; arrived bytes not yet reported are
      // salvaged first (deliver_chunk commits each salvaged chunk).
      up_->sync_stream();
      if (ledger_tracked_ && resume_base_ + payload_seen_ > 0) {
        depot_.commit_progress(hdr_.session_id, resume_base_ + payload_seen_);
      }
    }
    if (up_) {
      up_->abort();
    }
    for (auto& child : children_) {
      if (!child.closed) {
        child.closed = true;
        child.conn->abort();
      }
    }
    done();
  }

  /// End the flow-fidelity splice (idempotent), filling the relay-buffer
  /// telemetry the pump keeps at packet fidelity: stall time, and the user
  /// buffer's peak. The splice's level spans the upstream receive, user and
  /// downstream send buffers; it fills the downstream send buffer first,
  /// then the user buffer, as the pump does.
  void end_splice() {
    if (!splice_live_) {
      return;
    }
    splice_live_ = false;
    flow::FluidNetwork* fnet = depot_.stack_.topology().fluid();
    const auto stats = fnet->splice_stats(splice_.id);
    fnet->end_splice(splice_.id);
    if (depot_.metrics_ != nullptr) {
      const std::uint64_t send = depot_.config_.tcp.send_buffer_bytes;
      const std::uint64_t user = std::min(
          user_buffer_granted_,
          stats.peak_level > send ? stats.peak_level - send : 0);
      depot_.metrics_->buffer_occupancy->set(static_cast<double>(user));
      depot_.metrics_->buffer_occupancy->set(0.0);
      depot_.metrics_->stall_us->inc(
          static_cast<std::uint64_t>(stats.full_time.ns() / 1000));
    }
  }

  void done() {
    if (phase_ == Phase::kDone) {
      return;
    }
    const SimTime now = depot_.stack_.simulator().now();
    if (stalled_) {
      stalled_ = false;
      if (depot_.metrics_ != nullptr) {
        depot_.metrics_->stall_us->inc(
            static_cast<std::uint64_t>((now - stall_since_).ns() / 1000));
      }
    }
    if (depot_.metrics_ != nullptr && phase_ == Phase::kForwarding) {
      depot_.metrics_->relay_session_mib->observe(
          static_cast<double>(payload_seen_) / static_cast<double>(kMiB));
    }
    phase_ = Phase::kDone;
    depot_.release_user_memory(user_buffer_granted_);
    user_buffer_granted_ = 0;
    depot_.relay_done(this);
  }

  [[nodiscard]] std::uint64_t user_used() const {
    return buf_high_ - buf_base_;
  }

  Depot& depot_;
  tcp::Connection::Ptr up_;
  Phase phase_ = Phase::kReadingHeader;
  std::vector<std::byte> hdr_buf_;
  SessionHeader hdr_;
  bool up_eof_ = false;
  /// Relay buffer accounting in payload-stream offsets: [buf_base_,
  /// buf_high_) is held in user space right now.
  std::uint64_t buf_base_ = 0;
  std::uint64_t buf_high_ = 0;
  std::uint64_t payload_seen_ = 0;
  /// Resumed delivery: stream offset where this connection's payload starts.
  std::uint64_t resume_base_ = 0;
  std::uint64_t fetch_bytes_ = 0;
  /// The flow-fidelity hand-off of a unicast forwarding session.
  tcp::Connection::Splice splice_;
  bool splice_live_ = false;
  SimTime accepted_at_;
  std::uint64_t user_buffer_granted_ = 0;
  /// True for resumable unicast deliveries that account through the
  /// progress ledger (multicast leaves and striped arrivals stay out: their
  /// ids collide across branches/stripes, so ledger dedup would misfire).
  bool ledger_tracked_ = false;
  bool stalled_ = false;            ///< relay buffer currently full
  SimTime stall_since_ = SimTime::zero();
  std::vector<Child> children_;
};

// ---------------------------------------------------------------------------
// Depot

Depot::Depot(tcp::TcpStack& stack, DepotConfig config)
    : stack_(stack), config_(config), metrics_(obs::bundle<DepotMetrics>()) {
  stack_.listen(
      kLslPort, [this](tcp::Connection::Ptr conn) { on_accept(std::move(conn)); },
      config_.tcp);
}

void Depot::shutdown() {
  if (!running_) {
    return;
  }
  running_ = false;
  stack_.stop_listening(kLslPort);
  // fail() ends each relay via a deferred erase; iterate over a copy.
  const auto relays = relays_;
  for (const auto& relay : relays) {
    relay->abort_session();
  }
  // In-flight deferred stores die with the process: a crashed depot never
  // parks the payload it was about to store.
  for (const sim::EventId id : pending_stores_) {
    stack_.simulator().cancel(id);
  }
  pending_stores_.clear();
  store_.clear();
  store_order_.clear();
  store_bytes_used_ = 0;
  stripes_.clear();
}

void Depot::restart() {
  if (running_) {
    return;
  }
  running_ = true;
  stack_.listen(
      kLslPort,
      [this](tcp::Connection::Ptr conn) { on_accept(std::move(conn)); },
      config_.tcp);
}

Depot::~Depot() {
  for (auto& relay : relays_) {
    relay->detach_callbacks();
  }
  for (const sim::EventId id : pending_stores_) {
    stack_.simulator().cancel(id);
  }
  if (running_) {
    stack_.stop_listening(kLslPort);
  }
}

void Depot::on_accept(tcp::Connection::Ptr conn) {
  if (active_ >= config_.max_sessions) {
    ++stats_.sessions_refused;
    if (metrics_ != nullptr) {
      metrics_->sessions_refused->inc();
    }
    conn->abort();
    return;
  }
  ++stats_.sessions_accepted;
  if (metrics_ != nullptr) {
    metrics_->sessions_accepted->inc();
  }
  ++active_;
  auto relay = std::make_shared<Relay>(*this, std::move(conn));
  relays_.push_back(relay);
  relay->start();
}

void Depot::relay_done(Relay* relay) {
  LSL_ASSERT(active_ > 0);
  --active_;
  // Deferred removal: we're inside the relay's own callback chain.
  stack_.simulator().schedule_after(
      SimTime::zero(),
      [this, relay] {
        for (auto it = relays_.begin(); it != relays_.end(); ++it) {
          if (it->get() == relay) {
            (*it)->detach_callbacks();
            relays_.erase(it);
            break;
          }
        }
      },
      kDepotTag);
}

void Depot::session_delivered(const SessionHeader& header,
                              std::uint64_t bytes, SimTime accepted_at) {
  SessionRecord record;
  record.header = header;
  record.completed_at = stack_.simulator().now();

  if (header.stripe.has_value() && header.stripe->count > 1) {
    // One stripe of a striped session: aggregate until all have arrived.
    auto& partial = stripes_[header.session_id];
    if (partial.remaining == 0) {
      partial.remaining = header.stripe->count;
      partial.first_accepted = accepted_at;
    }
    partial.bytes += bytes;
    partial.first_accepted = std::min(partial.first_accepted, accepted_at);
    if (--partial.remaining > 0) {
      return;
    }
    record.bytes = partial.bytes;
    record.accepted_at = partial.first_accepted;
    stripes_.erase(header.session_id);
  } else {
    record.bytes = bytes;
    record.accepted_at = accepted_at;
  }

  ++stats_.sessions_delivered;
  if (metrics_ != nullptr) {
    metrics_->sessions_delivered->inc();
  }
  if (on_session_complete) {
    on_session_complete(record);
  }
}

void Depot::store_session(const SessionHeader& header, std::uint64_t bytes) {
  if (bytes > config_.max_store_bytes) {
    // Cannot ever fit; count it as evicted-on-arrival.
    ++stats_.sessions_evicted;
    return;
  }
  while (store_bytes_used_ + bytes > config_.max_store_bytes &&
         !store_order_.empty()) {
    const SessionId victim = store_order_.front();
    store_order_.pop_front();
    if (const auto it = store_.find(victim); it != store_.end()) {
      store_bytes_used_ -= it->second.second;
      store_.erase(it);
      ++stats_.sessions_evicted;
    }
  }
  // Replacing an existing id keeps accounting consistent.
  if (const auto it = store_.find(header.session_id); it != store_.end()) {
    store_bytes_used_ -= it->second.second;
  } else {
    store_order_.push_back(header.session_id);
  }
  store_[header.session_id] = {header, bytes};
  store_bytes_used_ += bytes;
  ++stats_.sessions_stored;
}

void Depot::schedule_store(const SessionHeader& header, std::uint64_t bytes) {
  // Actor tag: stores/evictions on distinct depots commute; stores on the
  // same depot contend for the same FIFO store and must stay dependent.
  // The high bit keeps the tag disjoint from the fault injector's depot
  // actors (node + 1), so a crash and a store on the same node still
  // interleave. +1 keeps node 0 distinct from the "unknown" actor.
  const std::uint32_t actor = 0x80000000u | (node_id() + 1);
  auto slot = std::make_shared<sim::EventId>();
  *slot = stack_.simulator().schedule_after(
      SimTime::zero(),
      [this, header, bytes, slot] {
        std::erase(pending_stores_, *slot);
        store_session(header, bytes);
      },
      kStoreTag, actor);
  pending_stores_.push_back(*slot);
}

std::uint64_t Depot::reserve_user_memory() {
  if (mc::ProtocolObserver* po = mc::observer()) {
    po->on_buffer(node_id(),
                  static_cast<std::int64_t>(config_.user_buffer_bytes));
  }
  return config_.user_buffer_bytes;
}

void Depot::release_user_memory(std::uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  if (mc::ProtocolObserver* po = mc::observer()) {
    po->on_buffer(node_id(), -static_cast<std::int64_t>(bytes));
  }
}

std::uint64_t Depot::commit_progress(const SessionId& id,
                                     std::uint64_t bytes) {
  // Bounded ledger: enough for every live recovery plus a long tail of
  // completed sessions, evicted FIFO.
  constexpr std::size_t kMaxProgressEntries = 4096;
  const auto [it, inserted] = progress_.try_emplace(id, bytes);
  std::uint64_t previous = 0;
  if (!inserted) {
    previous = it->second;
    it->second = std::max(it->second, bytes);  // progress never regresses
    LSL_PROTO_CHECK(it->second >= previous,
                    "committed offset regressed in ledger");
  } else {
    progress_order_.push_back(id);
    while (progress_.size() > kMaxProgressEntries &&
           !progress_order_.empty()) {
      progress_.erase(progress_order_.front());
      progress_order_.pop_front();
    }
  }
  if (mc::ProtocolObserver* po = mc::observer()) {
    po->on_commit(SessionIdHash{}(id), previous, std::max(previous, bytes));
  }
  return previous;
}

std::uint64_t Depot::committed_offset(const SessionId& id) {
  // A live delivery at flow fidelity reports its bytes lazily: bring the
  // ledger up to what has arrived.
  for (const auto& relay : relays_) {
    relay->sync_delivery(id);
  }
  const auto it = progress_.find(id);
  return it == progress_.end() ? 0 : it->second;
}

std::optional<std::uint64_t> Depot::stored_bytes(const SessionId& id) const {
  const auto it = store_.find(id);
  if (it == store_.end()) {
    return std::nullopt;
  }
  return it->second.second;
}

}  // namespace lsl::session
