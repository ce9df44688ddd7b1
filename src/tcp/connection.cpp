#include "tcp/connection.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/span.hpp"
#include "tcp/stack.hpp"
#include "util/log.hpp"

namespace lsl::tcp {

namespace {

const sim::Tag kRtoTag{"tcp.rto", sim::Layer::kTcp};
const sim::Tag kPersistTag{"tcp.persist", sim::Layer::kTcp};
const sim::Tag kTimeWaitTag{"tcp.time_wait", sim::Layer::kTcp};
const sim::Tag kDelackTag{"tcp.delack", sim::Layer::kTcp};
const sim::Tag kEofTag{"tcp.eof", sim::Layer::kTcp};

}  // namespace

const char* to_string(ConnectionError e) {
  switch (e) {
    case ConnectionError::kNone:
      return "none";
    case ConnectionError::kConnectTimeout:
      return "connect-timeout";
    case ConnectionError::kReset:
      return "reset";
    case ConnectionError::kRetransmitTimeout:
      return "retransmit-timeout";
  }
  return "?";
}

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynRcvd:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
    case TcpState::kDead:
      return "DEAD";
  }
  return "?";
}

Connection::Connection(TcpStack& stack, net::NodeId local, net::NodeId remote,
                       net::Port local_port, net::Port remote_port,
                       TcpOptions opts)
    : stack_(stack),
      sim_(stack.simulator()),
      local_node_(local),
      remote_node_(remote),
      local_port_(local_port),
      remote_port_(remote_port),
      opts_(opts),
      fluid_mode_(stack.fluid_mode()),
      send_buf_(opts.send_buffer_bytes),
      recv_buf_(opts.recv_buffer_bytes),
      cc_(make_congestion_control(opts)),
      rto_timer_(sim_, [this] { on_rto(); }, kRtoTag),
      persist_timer_(sim_, [this] { on_persist(); }, kPersistTag),
      time_wait_timer_(sim_, [this] { become_dead(); }, kTimeWaitTag),
      delack_timer_(
          sim_,
          [this] {
            unacked_segments_ = 0;
            send_pure_ack();
          },
          kDelackTag) {
  LSL_ASSERT_MSG(opts_.recv_buffer_bytes >= kMss,
                 "receive buffer smaller than one segment");
  metrics_ = obs::bundle<TcpMetrics>();
  if (metrics_ != nullptr) {
    metrics_->connections->inc();
  }
}

Connection::~Connection() {
  // The channels outlive neither end's hooks into this object.
  if (fluid_out_ != nullptr) {
    fluid_out_->sender = {};
  }
  if (fluid_in_ != nullptr) {
    fluid_in_->receiver = {};
    fluid_in_->drop_reader();
  }
}

std::uint64_t Connection::acked_payload() const {
  // At flow fidelity the engine's transmitted count stands in for acks.
  return fluid_out_ != nullptr ? fluid_out_->transmitted() : send_buf_.head();
}

std::string Connection::debug_string() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s una=%llu nxt=%llu max=%llu cwnd=%llu ssthresh=%llu wnd=%llu "
      "flight=%llu buf=[%llu,%llu) rcv_nxt=%llu readable=%llu dup=%d rec=%d "
      "fin(p=%d s=%d a=%d r=%d) rto=%d persist=%d",
      to_string(state_), static_cast<unsigned long long>(snd_una_),
      static_cast<unsigned long long>(snd_nxt_),
      static_cast<unsigned long long>(snd_max_),
      static_cast<unsigned long long>(cc_->cwnd()),
      static_cast<unsigned long long>(cc_->ssthresh() > 1ULL << 40
                                          ? 0
                                          : cc_->ssthresh()),
      static_cast<unsigned long long>(snd_wnd_),
      static_cast<unsigned long long>(flight()),
      static_cast<unsigned long long>(send_buf_.head()),
      static_cast<unsigned long long>(send_buf_.end()),
      static_cast<unsigned long long>(rcv_nxt_wire_),
      static_cast<unsigned long long>(recv_buf_.readable()), dup_acks_,
      in_recovery_ ? 1 : 0, fin_pending_ ? 1 : 0, fin_sent_ ? 1 : 0,
      fin_acked_ ? 1 : 0, fin_rcvd_ ? 1 : 0, rto_timer_.armed() ? 1 : 0,
      persist_timer_.armed() ? 1 : 0);
  return buf;
}

// ---------------------------------------------------------------------------
// Open / close

void Connection::start_active_open() {
  LSL_ASSERT(state_ == TcpState::kClosed);
  state_ = TcpState::kSynSent;
  send_control(net::kFlagSyn, 0);
  snd_nxt_ = 1;
  snd_max_ = 1;
  arm_rto();
}

void Connection::start_passive_open() {
  LSL_ASSERT(state_ == TcpState::kClosed);
  state_ = TcpState::kSynRcvd;
  // Caller feeds the SYN packet via handle_packet next.
}

void Connection::close() {
  if (fin_pending_) {
    return;
  }
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd ||
      state_ == TcpState::kClosed) {
    abort();
    return;
  }
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;  // already closing
  }
  fin_pending_ = true;
  fin_wire_ =
      fluid_out_ != nullptr ? 1 + fluid_out_->queued() : stream_data_end_wire();
  try_send();
}

void Connection::abort() {
  if (state_ == TcpState::kDead) {
    return;
  }
  if (state_ != TcpState::kClosed) {
    send_control(net::kFlagRst, snd_nxt_);
  }
  become_dead();
}

// ---------------------------------------------------------------------------
// Application API

std::uint64_t Connection::write_bytes(std::span<const std::byte> bytes) {
  if (fin_pending_ || state_ == TcpState::kDead) {
    return 0;
  }
  if (flow::FluidChannel* ch = fluid_out()) {
    return ch->write_content(bytes);
  }
  const std::uint64_t n = send_buf_.append_bytes(bytes);
  try_send();
  return n;
}

std::uint64_t Connection::write_synthetic(std::uint64_t n) {
  if (fin_pending_ || state_ == TcpState::kDead) {
    return 0;
  }
  if (flow::FluidChannel* ch = fluid_out()) {
    return ch->write(n);
  }
  const std::uint64_t accepted = send_buf_.append_synthetic(n);
  try_send();
  return accepted;
}

bool Connection::write_stream(std::uint64_t n) {
  if (fin_pending_ || state_ == TcpState::kDead) {
    return false;
  }
  if (flow::FluidChannel* ch = fluid_out()) {
    return ch->write_stream(n);
  }
  stream_left_ = n;
  return pump_stream();
}

bool Connection::pump_stream() {
  while (stream_left_ > 0) {
    const std::uint64_t sent = write_synthetic(stream_left_);
    if (sent == 0) {
      return false;
    }
    stream_left_ -= sent;
  }
  return true;
}

void Connection::notify_writable() {
  if (stream_left_ > 0 && !pump_stream()) {
    return;
  }
  if (on_writable) {
    on_writable();
  }
}

RecvBuffer::ReadResult Connection::read(std::uint64_t max) {
  RecvBuffer::ReadResult r;
  if (fluid_in_ != nullptr) {
    r.n = fluid_in_->read(max, r.real_bytes);
  } else {
    r = recv_buf_.read(max);
    if (r.n > 0) {
      maybe_send_window_update();
    }
  }
  if (at_eof() && !eof_delivered_) {
    eof_delivered_ = true;
    // Deliver EOF from a fresh event, never from inside the caller's own
    // read(): a synchronous callback could observe the application's state
    // before it has accounted for the bytes this read returns (the depot
    // relay would close its session with a chunk still in hand).
    auto self = shared_from_this();
    sim_.schedule_after(
        SimTime::zero(),
        [self] {
          if (self->on_eof) {
            self->on_eof();
          }
        },
        kEofTag);
  }
  return r;
}

void Connection::read_stream(std::function<void(std::uint64_t)> fn) {
  if (fluid_in_ != nullptr) {
    fluid_in_->read_stream(std::move(fn));
    return;
  }
  stream_reader_ = std::move(fn);
  drain_stream();
}

void Connection::drain_stream() {
  while (stream_reader_ && recv_buf_.readable() > 0) {
    const auto r = read(recv_buf_.readable());
    if (r.n == 0) {
      break;
    }
    stream_reader_(r.n);
  }
}

void Connection::sync_stream() {
  if (fluid_in_ != nullptr) {
    fluid_in_->sync_stream();
  } else {
    drain_stream();
  }
}

Connection::Splice Connection::splice_incoming(std::uint64_t capacity) {
  Splice splice;
  if (fluid_in_ != nullptr) {
    splice.id = fluid_in_->splice_upstream(capacity, splice.payload);
  }
  return splice;
}

bool Connection::splice_outgoing(const Splice& splice) {
  // No channel means the peer is gone: nothing is queued or credited, and
  // this connection's own failure ends the relay.
  flow::FluidChannel* ch = fluid_out();
  return ch != nullptr && ch->splice_downstream(splice.id, splice.payload);
}

// ---------------------------------------------------------------------------
// Segment emission

std::uint64_t Connection::advertised_window() const {
  std::uint64_t w = recv_buf_.window();
  // Receiver-side silly-window avoidance: never advertise a runt window.
  if (w < kMss) {
    w = 0;
  }
  return w;
}

std::uint64_t Connection::usable_window() const {
  return std::min(cc_->cwnd(), snd_wnd_);
}

void Connection::send_data_segment(std::uint64_t wire_seq, std::uint32_t len,
                                   bool retransmission) {
  net::Packet p;
  p.src = local_node_;
  p.dst = remote_node_;
  p.uid = next_packet_uid_++;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.seq = wire_seq;
  p.tcp.ack = rcv_nxt_wire_;
  p.tcp.flags = net::kFlagAck;
  p.tcp.wnd = advertised_window();
  p.payload_bytes = len;
  p.content = send_buf_.content_slice(wire_seq - 1, len);
  attach_sack_blocks(p.tcp);
  last_advertised_wnd_ = p.tcp.wnd;

  count_sent(retransmission);
  if (!retransmission && !timing_active_) {
    timing_active_ = true;
    timed_wire_end_ = wire_seq + len;
    timed_sent_at_ = sim_.now();
  }
  // The segment carries a current cumulative ACK: any pending delayed ACK
  // is satisfied by the piggyback.
  delack_timer_.cancel();
  unacked_segments_ = 0;
  stack_.emit(std::move(p));
  arm_rto();
}

void Connection::count_sent(bool retransmission) {
  ++stats_.segments_sent;
  if (metrics_ != nullptr) {
    metrics_->segments_sent->inc();
  }
  if (retransmission) {
    ++stats_.retransmits;
    if (metrics_ != nullptr) {
      metrics_->retransmits->inc();
    }
  }
}

void Connection::send_control(std::uint8_t flags, std::uint64_t wire_seq,
                              bool retransmission) {
  net::Packet p;
  p.src = local_node_;
  p.dst = remote_node_;
  p.uid = next_packet_uid_++;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.seq = wire_seq;
  p.tcp.flags = flags;
  if (syn_rcvd_) {
    p.tcp.flags |= net::kFlagAck;
    p.tcp.ack = rcv_nxt_wire_;
    attach_sack_blocks(p.tcp);
  }
  p.tcp.wnd = advertised_window();
  p.payload_bytes = 0;
  last_advertised_wnd_ = p.tcp.wnd;
  count_sent(retransmission);
  stack_.emit(std::move(p));
}

void Connection::send_pure_ack() { send_control(net::kFlagAck, snd_nxt_); }

void Connection::attach_sack_blocks(net::TcpHeader& header) {
  if (!opts_.sack_enabled || recv_buf_.ooo_bytes() == 0) {
    return;
  }
  std::pair<std::uint64_t, std::uint64_t> ranges[net::SackList::kMaxBlocks];
  const std::size_t n = recv_buf_.ooo_ranges(ranges);
  for (std::size_t i = 0; i < n; ++i) {
    // Data offsets -> wire sequence (+1 for the SYN).
    header.sack.push_back(
        net::SackBlock{ranges[i].first + 1, ranges[i].second + 1});
  }
}

void Connection::maybe_send_window_update() {
  if (state_ == TcpState::kDead || state_ == TcpState::kTimeWait) {
    return;
  }
  const std::uint64_t w = advertised_window();
  if (last_advertised_wnd_ == 0 && w >= kMss) {
    send_pure_ack();
  }
}

// ---------------------------------------------------------------------------
// Sending engine

void Connection::try_send() {
  // Stream data may flow while established and must keep flowing after a
  // local close until everything (including the FIN) is acknowledged: an
  // RTO can rewind snd_nxt below buffered data in FIN_WAIT_1 / CLOSING /
  // LAST_ACK, and that data still has to drain.
  const bool may_send_data =
      state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait ||
      state_ == TcpState::kFinWait1 || state_ == TcpState::kClosing ||
      state_ == TcpState::kLastAck;
  if (!may_send_data) {
    return;
  }

  if (fluid_mode_ && (fluid_out_ != nullptr || send_buf_.end() > 0) &&
      ensure_fluid_channel()) {
    // The FIN rides a real packet, emitted once the last payload byte has
    // left the sender. It can overtake the last bytes' arrival; the
    // receiver holds it until they are in (maybe_accept_pending_fin).
    if (fin_pending_ && !fin_sent_) {
      if (!fluid_out_->all_transmitted()) {
        fluid_out_->arm_drained();
        return;
      }
      send_control(net::kFlagFin, fin_wire_);
      snd_nxt_ = fin_wire_ + 1;
      snd_max_ = std::max(snd_max_, snd_nxt_);
      fin_sent_ = true;
      if (state_ == TcpState::kEstablished) {
        state_ = TcpState::kFinWait1;
      } else if (state_ == TcpState::kCloseWait) {
        state_ = TcpState::kLastAck;
      }
      arm_rto();
    }
    return;
  }

  {
    const std::uint64_t window = usable_window();
    while (snd_nxt_ < stream_data_end_wire()) {
      const std::uint64_t offset = snd_nxt_ - 1;
      const std::uint64_t avail = send_buf_.end() - offset;
      const std::uint64_t fl = flight();
      if (fl >= window) {
        break;
      }
      const std::uint64_t room = window - fl;
      const auto seg = static_cast<std::uint32_t>(
          std::min<std::uint64_t>({kMss, avail, room}));
      if (seg == 0) {
        break;
      }
      // Sender-side SWS avoidance: while data remains and the pipe is
      // non-empty, wait for more window rather than emit a runt. The final
      // runt of a write ships at once.
      if (seg < kMss && fl > 0 && seg < avail) {
        break;
      }
      send_data_segment(snd_nxt_, seg, /*retransmission=*/false);
      snd_nxt_ += seg;
      snd_max_ = std::max(snd_max_, snd_nxt_);
    }
  }

  // FIN goes out once all stream data has been transmitted.
  if (fin_pending_ && snd_nxt_ == fin_wire_) {
    send_control(net::kFlagFin, fin_wire_);
    snd_nxt_ = fin_wire_ + 1;
    snd_max_ = std::max(snd_max_, snd_nxt_);
    if (!fin_sent_) {
      fin_sent_ = true;
      if (state_ == TcpState::kEstablished) {
        state_ = TcpState::kFinWait1;
      } else if (state_ == TcpState::kCloseWait) {
        state_ = TcpState::kLastAck;
      }
    }
    arm_rto();
  }

  // Zero-window probing: peer closed its window while we still have unsent
  // data and nothing in flight. A lost window update would deadlock us; the
  // persist timer pushes one byte past the window to force an ACK.
  if (snd_wnd_ == 0 && flight() == 0 &&
      snd_nxt_ < stream_data_end_wire() && may_send_data) {
    persist_timer_.arm_if_idle(rtt_.rto());
  } else {
    persist_timer_.cancel();
  }
}

void Connection::on_persist() {
  if (state_ == TcpState::kDead || fluid_data_plane()) {
    return;
  }
  if (snd_wnd_ == 0 && flight() == 0 && snd_nxt_ < stream_data_end_wire()) {
    // One byte beyond the advertised window; RTO backoff then paces retries.
    send_data_segment(snd_nxt_, 1, /*retransmission=*/true);
    snd_nxt_ += 1;
    snd_max_ = std::max(snd_max_, snd_nxt_);
  }
}

void Connection::arm_rto() {
  if (flight() > 0 || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynRcvd) {
    if (!rto_timer_.armed()) {
      rto_timer_.arm(rtt_.rto());
      rto_armed_at_ = sim_.now();
    }
  }
}

void Connection::restart_rto_if_needed() {
  if (flight() > 0) {
    // A lazy re-arm: pushing the deadline later costs no kernel event.
    rto_timer_.arm(rtt_.rto());
    rto_armed_at_ = sim_.now();
  } else {
    rto_timer_.cancel();
  }
}

// ---------------------------------------------------------------------------
// Timeout handling

void Connection::on_rto() {
  if (state_ == TcpState::kDead || state_ == TcpState::kTimeWait) {
    return;
  }
  ++stats_.timeouts;
  if (metrics_ != nullptr) {
    metrics_->timeouts->inc();
  }
  if (stream_span_ != 0 && sim_.now() > rto_armed_at_) {
    if (obs::SpanRecorder* sr = obs::spans()) {
      // Retroactive dead-air episode: no ACK progress from the last RTO arm
      // to the timeout firing. --explain shifts this window from streaming
      // into the retransmit-dominated bucket (obs/explain.cpp).
      sr->complete(rto_armed_at_, sim_.now() - rto_armed_at_,
                   obs::SpanKind::kRtoWait, span_session_, stream_span_,
                   "rto");
    }
  }
  timing_active_ = false;  // Karn: never sample retransmitted data
  rtt_.backoff();

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd) {
    if (++syn_retries_ > kMaxSynRetries) {
      // The peer is unreachable or refusing: give up and tell the app.
      error_ = ConnectionError::kConnectTimeout;
      become_dead();
      return;
    }
    // Retransmit the (SYN / SYN+ACK) handshake segment.
    send_control(net::kFlagSyn, 0, /*retransmission=*/true);
    rto_timer_.arm(rtt_.rto());
    rto_armed_at_ = sim_.now();
    return;
  }

  if (++data_retries_ > kMaxDataRetries) {
    // No ACK progress across kMaxDataRetries consecutive timeouts: the
    // peer vanished without a RST reaching us. Give up so the connection
    // (and whatever session holds it) can fail over instead of leaking.
    error_ = ConnectionError::kRetransmitTimeout;
    become_dead();
    return;
  }

  if (fluid_data_plane()) {
    // Payload needs no retransmission (fluid flows are lossless); the only
    // wire sequence in flight is the FIN.
    if (fin_sent_ && !fin_acked_) {
      send_control(net::kFlagFin, fin_wire_, /*retransmission=*/true);
      snd_nxt_ = fin_wire_ + 1;
      snd_max_ = std::max(snd_max_, snd_nxt_);
      rto_timer_.arm(rtt_.rto());
      rto_armed_at_ = sim_.now();
    }
    return;
  }

  cc_->on_rto(flight(), sim_.now());
  in_recovery_ = false;
  dup_acks_ = 0;
  sacked_.clear();  // conservative: assume the peer reneged
  rtx_out_.clear();

  // Go-back-N: rewind the send frontier; try_send refills from snd_una.
  snd_nxt_ = snd_una_;
  if (fin_sent_ && snd_una_ > fin_wire_) {
    // Everything including FIN was sent; only FIN remains unacked.
    snd_nxt_ = fin_wire_;
  }
  if (snd_nxt_ == fin_wire_ && fin_sent_) {
    send_control(net::kFlagFin, fin_wire_, /*retransmission=*/true);
    snd_nxt_ = fin_wire_ + 1;
  } else if (snd_nxt_ < stream_data_end_wire()) {
    const std::uint64_t offset = snd_nxt_ - 1;
    const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kMss, send_buf_.end() - offset));
    if (len > 0) {
      send_data_segment(snd_nxt_, len, /*retransmission=*/true);
      snd_nxt_ += len;
    }
  }
  rto_timer_.arm(rtt_.rto());
  rto_armed_at_ = sim_.now();
}

// ---------------------------------------------------------------------------
// Receive path

void Connection::handle_packet(const net::Packet& packet) {
  const net::TcpHeader& h = packet.tcp;

  if (h.has(net::kFlagRst)) {
    LSL_DEBUG("tcp %u:%u: RST received", local_node_, local_port_);
    if (state_ != TcpState::kTimeWait) {
      // A reset in TIME_WAIT is an ordinary early teardown, not a failure.
      error_ = ConnectionError::kReset;
    }
    become_dead();
    return;
  }

  if (state_ == TcpState::kSynSent) {
    if (h.has(net::kFlagSyn) && h.has(net::kFlagAck) && h.ack >= 1) {
      syn_rcvd_ = true;
      rcv_nxt_wire_ = 1;
      snd_una_ = 1;
      snd_wnd_ = h.wnd;
      state_ = TcpState::kEstablished;
      span_on_established();
      restart_rto_if_needed();
      send_pure_ack();
      if (on_connected) {
        on_connected();
      }
      try_send();
    }
    // Anything else in SYN_SENT (e.g. stray data) is dropped.
    return;
  }

  if (h.has(net::kFlagSyn)) {
    if (state_ == TcpState::kSynRcvd) {
      if (!syn_rcvd_) {
        // First SYN observed by this passive connection.
        syn_rcvd_ = true;
        rcv_nxt_wire_ = 1;
        snd_wnd_ = h.wnd;
        send_control(net::kFlagSyn, 0);  // SYN+ACK (ACK added by send_control)
        snd_nxt_ = 1;
        snd_max_ = 1;
        arm_rto();
      } else {
        // Retransmitted SYN: our SYN+ACK was lost.
        send_control(net::kFlagSyn, 0, /*retransmission=*/true);
        arm_rto();
      }
      return;
    }
    // Stray SYN on an established connection: peer never saw our SYN+ACK
    // ack; re-ack it.
    send_pure_ack();
    return;
  }

  const bool had_payload = packet.payload_bytes > 0;
  const bool had_fin = h.has(net::kFlagFin);

  if (h.has(net::kFlagAck)) {
    process_ack(packet);
  }
  if (state_ == TcpState::kDead) {
    return;
  }
  if (had_payload) {
    process_payload(packet);
  }
  if (had_fin) {
    process_fin(packet);
  }
  if (had_fin) {
    // FIN always elicits an immediate ACK, except one held for the fluid
    // plane's last bytes: that is acknowledged once they are in.
    if (fin_rcvd_ || fluid_in_ == nullptr) {
      delack_timer_.cancel();
      unacked_segments_ = 0;
      send_pure_ack();
    }
  } else if (had_payload) {
    const bool out_of_order = recv_buf_.ooo_bytes() > 0;
    acknowledge_data(out_of_order);
  }
}

void Connection::acknowledge_data(bool out_of_order) {
  if (!opts_.delayed_ack || out_of_order) {
    // Immediate ACK; out-of-order arrivals must generate the duplicate
    // ACKs fast retransmit depends on (RFC 5681).
    delack_timer_.cancel();
    unacked_segments_ = 0;
    send_pure_ack();
    return;
  }
  if (++unacked_segments_ >= 2) {
    delack_timer_.cancel();
    unacked_segments_ = 0;
    send_pure_ack();
    return;
  }
  delack_timer_.arm_if_idle(kDelayedAckTimeout);
}

void Connection::process_ack(const net::Packet& packet) {
  const net::TcpHeader& h = packet.tcp;
  const std::uint64_t ack = h.ack;
  if (ack > snd_max_) {
    return;  // acks data never sent
  }

  if (fluid_data_plane()) {
    // Packets carry no payload on the fluid plane, so an arriving ACK is a
    // window update or the FIN acknowledgment. The congestion machinery
    // below must not run: the peer's pure ACKs would read as duplicates and
    // fake a loss episode.
    snd_wnd_ = h.wnd;
    if (ack > snd_una_) {
      snd_una_ = ack;
      data_retries_ = 0;
      snd_nxt_ = std::max(snd_nxt_, snd_una_);
      if (fin_sent_ && !fin_acked_ && snd_una_ > fin_wire_) {
        fin_acked_ = true;
        on_fin_acked();
        if (state_ == TcpState::kDead) {
          return;
        }
      }
      restart_rto_if_needed();
    }
    try_send();
    return;
  }

  const bool is_dup = ack == snd_una_ && snd_nxt_ > snd_una_ &&
                      packet.payload_bytes == 0 && !h.has(net::kFlagFin) &&
                      h.wnd == snd_wnd_ && snd_wnd_ > 0;
  snd_wnd_ = h.wnd;

  if (opts_.sack_enabled) {
    for (const auto& block : h.sack) {
      sacked_.add(block.begin, block.end);
    }
    if (metrics_ != nullptr && !h.sack.empty()) {
      metrics_->sack_blocks_rx->inc(h.sack.size());
    }
  }

  if (ack > snd_una_) {
    const std::uint64_t newly = ack - snd_una_;
    snd_una_ = ack;
    data_retries_ = 0;
    // After an RTO rewound snd_nxt, a cumulative ACK for data the receiver
    // already held out-of-order can overtake the send frontier.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dup_acks_ = 0;
    sacked_.prune_below(snd_una_);

    if (state_ == TcpState::kSynRcvd && snd_una_ >= 1) {
      advance_handshake_established();
    }

    // Free acknowledged payload from the send buffer.
    const std::uint64_t data_acked =
        std::min(ack > 0 ? ack - 1 : 0, send_buf_.end());
    const std::uint64_t before = send_buf_.head();
    if (data_acked > before) {
      send_buf_.release_through(data_acked);
      if (on_ack_advance) {
        on_ack_advance(sim_.now(), send_buf_.head());
      }
    }

    if (timing_active_ && snd_una_ >= timed_wire_end_) {
      const SimTime sample = sim_.now() - timed_sent_at_;
      rtt_.add_sample(sample);
      cc_->on_rtt_sample(sample, sim_.now());
      timing_active_ = false;
      if (metrics_ != nullptr) {
        // RTT-sample cadence: one histogram point per timed segment, and a
        // cwnd sample at the same rate (~once per RTT under Karn's rule).
        metrics_->rtt_ms->observe(sample.to_milliseconds());
        metrics_->cwnd_segments->observe(static_cast<double>(cc_->cwnd()) /
                                         static_cast<double>(kMss));
      }
    }

    if (in_recovery_) {
      if (ack >= recover_) {
        // Full acknowledgment: deflate to ssthresh and exit recovery.
        cc_->on_recovery_exit(sim_.now());
        in_recovery_ = false;
        sacked_.clear();
        rtx_out_.clear();
      } else if (!cc_->partial_ack_keeps_recovery()) {
        // Classic Reno: the first partial ACK deflates and ends the
        // episode; remaining holes wait for a fresh dup-ACK round or RTO.
        cc_->on_recovery_exit(sim_.now());
        in_recovery_ = false;
        dup_acks_ = 0;
        sacked_.clear();
        rtx_out_.clear();
        restart_rto_if_needed();
      } else if (opts_.sack_enabled) {
        rtx_out_.prune_below(snd_una_);
        // The byte at the new snd_una is a proven hole.
        if (!sacked_.covers(snd_una_) && !rtx_out_.covers(snd_una_)) {
          const std::uint32_t sent = retransmit_at(snd_una_);
          if (sent > 0) {
            rtx_out_.add(snd_una_, snd_una_ + sent);
          }
        }
        recovery_fill();
        restart_rto_if_needed();
      } else {
        // NewReno partial ack: retransmit one hole per RTT.
        retransmit_at(snd_una_);
        cc_->on_partial_ack(newly);
        restart_rto_if_needed();
      }
    } else {
      // Normal window growth (slow start / congestion avoidance / the
      // CCA's own law) belongs to the congestion controller.
      cc_->on_ack(newly, flight(), sim_.now(), rtt_.srtt());
    }

    if (fin_sent_ && !fin_acked_ && snd_una_ > fin_wire_) {
      fin_acked_ = true;
      on_fin_acked();
      if (state_ == TcpState::kDead) {
        return;
      }
    }

    restart_rto_if_needed();
    if (send_buf_.free_space() > 0 && !fin_pending_) {
      notify_writable();
    }
    try_send();
    return;
  }

  if (is_dup) {
    if (metrics_ != nullptr) {
      metrics_->dup_acks->inc();
    }
    if (in_recovery_) {
      if (opts_.sack_enabled) {
        recovery_fill();
      } else {
        cc_->on_recovery_dup_ack();  // inflate for the departed duplicate
        try_send();
      }
    } else if (++dup_acks_ == 3) {
      enter_recovery();
    }
    return;
  }

  // Window update or stale ack: the usable window may have changed.
  try_send();
}

void Connection::enter_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  // The CCA sets ssthresh and the recovery window (for Reno-family, the
  // classic ssthresh + 3 MSS inflation). The retransmission below is not
  // window-gated, so ordering against it does not matter.
  cc_->on_enter_recovery(flight(), sim_.now());
  ++stats_.fast_retransmits;
  if (metrics_ != nullptr) {
    metrics_->fast_retransmits->inc();
  }
  timing_active_ = false;  // Karn
  rtx_out_.clear();
  // Retransmit the presumed-lost head segment.
  if (fin_sent_ && snd_una_ == fin_wire_) {
    send_control(net::kFlagFin, fin_wire_, /*retransmission=*/true);
  } else {
    const std::uint32_t sent = retransmit_at(snd_una_);
    if (sent > 0) {
      rtx_out_.add(snd_una_, snd_una_ + sent);
    }
  }
  restart_rto_if_needed();
  if (opts_.sack_enabled) {
    recovery_fill();
  } else {
    try_send();
  }
}

std::uint32_t Connection::retransmit_at(std::uint64_t wire_seq) {
  if (wire_seq < 1 || wire_seq >= stream_data_end_wire()) {
    if (fin_sent_ && wire_seq == fin_wire_) {
      send_control(net::kFlagFin, fin_wire_, /*retransmission=*/true);
      return 1;
    }
    return 0;
  }
  const std::uint64_t offset = wire_seq - 1;
  auto len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kMss, send_buf_.end() - offset));
  if (len == 0) {
    return 0;
  }
  // Do not re-send past data the peer already holds.
  if (opts_.sack_enabled) {
    const auto hole = sacked_.next_hole(wire_seq, wire_seq + len);
    if (!hole.found) {
      return 0;
    }
    len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(len, hole.end - hole.begin));
  }
  send_data_segment(wire_seq, len, /*retransmission=*/true);
  return len;
}

std::uint64_t Connection::recovery_pipe() const {
  // RFC 3517 SetPipe, simplified: bytes believed in the network are the
  // outstanding window minus what the peer reported holding, minus holes
  // presumed lost (gaps below the highest SACKed byte), plus holes we have
  // already retransmitted (back in flight).
  const std::uint64_t outstanding = snd_nxt_ - snd_una_;
  const std::uint64_t limit = std::min(recover_, stream_data_end_wire());
  const std::uint64_t highest = std::min(sacked_.highest_end(), limit);
  std::uint64_t lost = 0;
  if (highest > snd_una_) {
    const std::uint64_t region = highest - snd_una_;
    const std::uint64_t sacked_in = sacked_.bytes_below(highest);
    const std::uint64_t rtx_in = rtx_out_.bytes_below(highest);
    const std::uint64_t known = std::min(region, sacked_in + rtx_in);
    lost = region - known;
  }
  const std::uint64_t known_absent = sacked_.sacked_bytes() + lost;
  return outstanding > known_absent ? outstanding - known_absent : 0;
}

std::uint32_t Connection::send_next_recovery_hole() {
  const std::uint64_t limit = std::min(recover_, stream_data_end_wire());
  std::uint64_t cursor = snd_una_;
  while (cursor < limit) {
    const auto hole = sacked_.next_hole(cursor, limit);
    if (!hole.found || !hole.bounded) {
      // Gaps with no SACKed data above are not yet presumed lost.
      return 0;
    }
    // Skip the parts of this hole already retransmitted.
    const auto fresh = rtx_out_.next_hole(hole.begin, hole.end);
    if (!fresh.found) {
      cursor = hole.end;
      continue;
    }
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMss, fresh.end - fresh.begin));
    send_data_segment(fresh.begin, len, /*retransmission=*/true);
    rtx_out_.add(fresh.begin, fresh.begin + len);
    return len;
  }
  return 0;
}

void Connection::recovery_fill() {
  while (in_recovery_) {
    const std::uint64_t pipe = recovery_pipe();
    if (pipe + kMss > cc_->cwnd()) {
      return;
    }
    if (send_next_recovery_hole() == 0) {
      break;
    }
  }
  // No presumed-lost holes left: push new data under the normal window
  // machinery (cwnd here is ssthresh-ish, so this stays conservative).
  try_send();
}

void Connection::process_payload(const net::Packet& packet) {
  if (!syn_rcvd_ || packet.tcp.seq == 0) {
    return;
  }
  const std::uint64_t offset = packet.tcp.seq - 1;
  const auto res =
      recv_buf_.on_segment(offset, packet.payload_bytes, packet.content);
  if (res.advanced) {
    rcv_nxt_wire_ = 1 + recv_buf_.rcv_nxt();
    maybe_accept_pending_fin();
    if (recv_buf_.readable() > 0) {
      drain_stream();
      if (on_readable) {
        on_readable();
      }
    }
  }
}

void Connection::process_fin(const net::Packet& packet) {
  // FIN sits after any payload carried in the same segment.
  const std::uint64_t fin_seq = packet.tcp.seq + packet.payload_bytes;
  if (!fin_rcvd_) {
    peer_fin_seq_ = fin_seq;
    peer_fin_seen_ = true;
    maybe_accept_pending_fin();
  }
}

void Connection::maybe_accept_pending_fin() {
  if (!peer_fin_seen_ || fin_rcvd_) {
    return;
  }
  if (fluid_in_ != nullptr) {
    // The FIN rides a packet and can overtake the last payload bytes: hold
    // it until they have arrived (on_fluid_arrived comes back here).
    if (!fluid_in_->hold_fin(peer_fin_seq_ - 1)) {
      return;
    }
  } else if (rcv_nxt_wire_ != peer_fin_seq_) {
    return;
  }
  fin_rcvd_ = true;
  rcv_nxt_wire_ = peer_fin_seq_ + 1;
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      state_ = fin_acked_ ? TcpState::kTimeWait : TcpState::kClosing;
      if (state_ == TcpState::kTimeWait) {
        enter_time_wait();
      }
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
  if (at_eof() && !eof_delivered_) {
    eof_delivered_ = true;
    if (on_eof) {
      on_eof();
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle transitions

void Connection::advance_handshake_established() {
  state_ = TcpState::kEstablished;
  span_on_established();
  restart_rto_if_needed();
  stack_.deliver_accept(ConnKey{remote_node_, local_port_, remote_port_});
}

void Connection::set_span_context(std::uint64_t session,
                                  std::uint64_t parent) {
  span_session_ = session;
  span_parent_ = parent;
  obs::SpanRecorder* sr = obs::spans();
  if (sr == nullptr) {
    return;
  }
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd ||
      state_ == TcpState::kClosed) {
    connect_span_ = sr->begin(sim_.now(), obs::SpanKind::kConnect,
                              span_session_, span_parent_);
  } else if (state_ == TcpState::kEstablished) {
    stream_span_ = sr->begin(sim_.now(), obs::SpanKind::kStream,
                             span_session_, span_parent_);
  }
}

void Connection::span_on_established() {
  if (span_session_ == 0) {
    return;
  }
  obs::SpanRecorder* sr = obs::spans();
  if (sr == nullptr) {
    return;
  }
  if (connect_span_ != 0) {
    sr->end(sim_.now(), obs::SpanKind::kConnect, connect_span_,
            span_session_, "established");
    connect_span_ = 0;
  }
  stream_span_ = sr->begin(sim_.now(), obs::SpanKind::kStream, span_session_,
                           span_parent_);
}

void Connection::end_spans(const char* reason) {
  if (connect_span_ == 0 && stream_span_ == 0) {
    return;
  }
  if (obs::SpanRecorder* sr = obs::spans()) {
    if (connect_span_ != 0) {
      sr->end(sim_.now(), obs::SpanKind::kConnect, connect_span_,
              span_session_, reason);
    }
    if (stream_span_ != 0) {
      sr->end(sim_.now(), obs::SpanKind::kStream, stream_span_,
              span_session_, reason);
    }
  }
  connect_span_ = 0;
  stream_span_ = 0;
}

void Connection::on_fin_acked() {
  switch (state_) {
    case TcpState::kFinWait1:
      state_ = TcpState::kFinWait2;
      break;
    case TcpState::kClosing:
      enter_time_wait();
      break;
    case TcpState::kLastAck:
      become_dead();
      break;
    default:
      break;
  }
}

void Connection::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  rto_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.arm(kTimeWaitLinger);
}

void Connection::become_dead() {
  if (state_ == TcpState::kDead) {
    return;
  }
  state_ = TcpState::kDead;
  end_spans(error_ != ConnectionError::kNone ? to_string(error_) : "closed");
  fluid_teardown();
  rto_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.cancel();
  delack_timer_.cancel();
  stack_.reap(ConnKey{remote_node_, local_port_, remote_port_});
  if (error_ != ConnectionError::kNone && on_error) {
    on_error(error_);
  }
  if (on_closed) {
    on_closed();
  }
}

void Connection::release_callbacks() {
  // Take every callback out before any is destroyed: destroying one may
  // destroy an owner whose destructor touches this socket.
  if (fluid_in_ != nullptr) {
    fluid_in_->drop_reader();
  }
  const auto released = std::make_tuple(
      std::exchange(on_connected, nullptr), std::exchange(on_readable, nullptr),
      std::exchange(on_writable, nullptr), std::exchange(on_eof, nullptr),
      std::exchange(on_closed, nullptr), std::exchange(on_error, nullptr),
      std::exchange(on_ack_advance, nullptr),
      std::exchange(stream_reader_, nullptr));
}

// ---------------------------------------------------------------------------
// Fluid data plane

bool Connection::ensure_fluid_channel() {
  if (fluid_out_ != nullptr) {
    return true;
  }
  if (fluid_checked_) {
    return false;
  }
  fluid_checked_ = true;
  flow::FluidNetwork* fnet = stack_.topology().fluid();
  if (fnet == nullptr) {
    return false;
  }
  const auto fwd = stack_.topology().routed_path(local_node_, remote_node_);
  const auto rev = stack_.topology().routed_path(remote_node_, local_node_);
  if (!fwd || !rev) {
    return false;
  }
  auto* peer_stack = dynamic_cast<TcpStack*>(
      stack_.topology().node(remote_node_).stack());
  if (peer_stack == nullptr) {
    return false;
  }
  const auto peer = peer_stack->find_connection(
      ConnKey{local_node_, remote_port_, local_port_});
  if (peer == nullptr) {
    return false;
  }

  // One-way timing as a data segment experiences it: each forward hop's
  // propagation plus one full-MTU store-and-forward serialization; the
  // ACK's return leg is propagation only.
  constexpr std::uint64_t kMtuBytes = flow::kMss + net::kPacketOverheadBytes;
  flow::FluidFlowSpec spec;
  SimTime reverse = SimTime::zero();
  for (const net::Link* link : *fwd) {
    spec.path.push_back(link->fluid_link_id());
    spec.latency += link->config().propagation_delay +
                    link->config().rate.transmit_time(kMtuBytes);
  }
  for (const net::Link* link : *rev) {
    reverse += link->config().propagation_delay;
  }
  spec.rtt = std::max(spec.latency + reverse, SimTime::microseconds(1));
  spec.window_bytes = std::max<std::uint64_t>(
      1, std::min(opts_.send_buffer_bytes, peer->opts_.recv_buffer_bytes));
  spec.cca = opts_.cca;
  fluid_out_ = flow::FluidChannel::open(*fnet, std::move(spec),
                                        opts_.send_buffer_bytes,
                                        peer->opts_.recv_buffer_bytes);
  fluid_out_->sender.writable = [this] { on_fluid_writable(); };
  fluid_out_->sender.drained = [this] { try_send(); };
  Connection* receiver = peer.get();
  fluid_out_->receiver.readable = [receiver] { receiver->on_fluid_readable(); };
  fluid_out_->receiver.arrived = [receiver] { receiver->on_fluid_arrived(); };
  peer->fluid_in_ = fluid_out_;
  if (peer->stream_reader_) {
    peer->fluid_in_->read_stream(std::exchange(peer->stream_reader_, nullptr));
  }
  // Bytes queued before the handshake completed move to the channel.
  if (send_buf_.end() > 0) {
    const auto content = send_buf_.content_slice(0, send_buf_.end());
    fluid_out_->write_content(content);
    fluid_out_->write(send_buf_.end() - content.size());
  }
  return true;
}

flow::FluidChannel* Connection::open_fluid_out() {
  if (fluid_out_ != nullptr) {
    return fluid_out_.get();
  }
  const bool may_send =
      state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait;
  if (!may_send || !ensure_fluid_channel()) {
    return nullptr;
  }
  return fluid_out_.get();
}

void Connection::on_fluid_writable() {
  if (state_ == TcpState::kDead) {
    return;
  }
  if (on_ack_advance) {
    on_ack_advance(sim_.now(), acked_payload());
  }
  if (!fin_pending_ && on_writable) {
    on_writable();
  }
}

void Connection::on_fluid_readable() {
  if (state_ != TcpState::kDead && on_readable && readable_bytes() > 0) {
    on_readable();
  }
}

void Connection::on_fluid_arrived() {
  if (state_ == TcpState::kDead) {
    return;
  }
  on_fluid_readable();
  maybe_accept_pending_fin();
  // The held FIN was acknowledged as not yet in when it came; acknowledge
  // it now unless the application's close in on_eof already did.
  if (fin_rcvd_ && state_ != TcpState::kDead && state_ != TcpState::kLastAck) {
    send_pure_ack();
  }
}

void Connection::fluid_teardown() {
  if (fluid_in_ != nullptr) {
    // Lazily consumed bytes count as read up to the failure.
    fluid_in_->sync_stream();
    fluid_in_->close_receiver();
  }
  if (fluid_out_ != nullptr) {
    fluid_out_->close_sender();
  }
}

}  // namespace lsl::tcp
