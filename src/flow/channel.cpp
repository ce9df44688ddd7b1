#include "flow/channel.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace lsl::flow {

std::shared_ptr<FluidChannel> FluidChannel::open(FluidNetwork& net,
                                                 FluidFlowSpec spec,
                                                 std::uint64_t send_buffer,
                                                 std::uint64_t recv_buffer) {
  return std::shared_ptr<FluidChannel>(
      new FluidChannel(net, std::move(spec), send_buffer, recv_buffer));
}

FluidChannel::FluidChannel(FluidNetwork& net, FluidFlowSpec spec,
                           std::uint64_t send_buffer,
                           std::uint64_t recv_buffer)
    : net_(net),
      window_(spec.window_bytes),
      send_buffer_(send_buffer),
      recv_buffer_(recv_buffer),
      // Steps large enough to amortize their markers, small enough that a
      // window-limited reader sees several per round trip's worth of data.
      quantum_(std::clamp<std::uint64_t>(spec.window_bytes, 64 * kKiB,
                                         4 * kMiB)) {
  flow_ = net_.start_flow(std::move(spec));
}

// ---------------------------------------------------------------------------
// Sender

std::uint64_t FluidChannel::transmitted() const {
  return std::min(net_.transmitted(flow_), queued_);
}

std::uint64_t FluidChannel::free_space() const {
  const std::uint64_t used = queued_ - transmitted();
  return used >= send_buffer_ ? 0 : send_buffer_ - used;
}

void FluidChannel::offer(std::uint64_t n) {
  if (n == 0) {
    return;
  }
  net_.add_bytes(flow_, n);
  arm_step();
}

void FluidChannel::arm_writable(std::uint64_t at) {
  // The latest arm wins: a marker armed earlier for another offset stays
  // in the engine but no longer fires the hook.
  const std::uint64_t generation = ++writable_generation_;
  net_.notify_at(flow_, at, guarded([generation](FluidChannel& c) {
                   if (c.writable_generation_ == generation &&
                       c.sender.writable) {
                     c.sender.writable();
                   }
                 }));
}

std::uint64_t FluidChannel::write_content(std::span<const std::byte> bytes) {
  LSL_ASSERT_MSG(queued_ == content_.size(),
                 "real bytes must precede synthetic payload");
  const std::uint64_t n =
      std::min<std::uint64_t>(bytes.size(), free_space());
  content_.insert(content_.end(), bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(n));
  queued_ += n;
  offer(n);
  if (n < bytes.size()) {
    arm_writable(queued_);
  }
  return n;
}

std::uint64_t FluidChannel::write(std::uint64_t n) {
  const std::uint64_t accepted = std::min(n, free_space());
  queued_ += accepted;
  offer(accepted);
  if (accepted < n) {
    arm_writable(queued_);  // `writable` once the send buffer empties
  }
  return accepted;
}

bool FluidChannel::write_stream(std::uint64_t n) {
  // The engine gets the whole remainder at once; the application's bytes
  // enter the send buffer as it drains, the last of them once the flow has
  // sent all but one buffer's worth.
  queued_ += n;
  offer(n);
  const std::uint64_t last_in =
      queued_ > send_buffer_ ? queued_ - send_buffer_ : 0;
  if (transmitted() >= last_in) {
    return true;
  }
  arm_writable(last_in);
  return false;
}

void FluidChannel::arm_drained() {
  if (drained_armed_ || !sender_open_) {
    return;
  }
  drained_armed_ = true;
  net_.notify_at(flow_, queued_, guarded([](FluidChannel& c) {
                   c.drained_armed_ = false;
                   if (c.sender.drained) {
                     c.sender.drained();
                   }
                 }));
}

void FluidChannel::close_sender() {
  if (!sender_open_) {
    return;
  }
  sender_open_ = false;
  sender = {};
  net_.end_flow(flow_);
}

// ---------------------------------------------------------------------------
// Receiver

std::uint64_t FluidChannel::readable() const {
  return reader_ == Reader::kSteps ? revealed_ - consumed_ : 0;
}

std::uint64_t FluidChannel::read(std::uint64_t max,
                                 std::vector<std::byte>& content) {
  const std::uint64_t n = std::min(max, readable());
  if (consumed_ < content_.size()) {
    const std::uint64_t stop =
        std::min<std::uint64_t>(content_.size(), consumed_ + n);
    content.assign(content_.begin() + static_cast<std::ptrdiff_t>(consumed_),
                   content_.begin() + static_cast<std::ptrdiff_t>(stop));
  }
  consumed_ += n;
  resume_sender();
  return n;
}

void FluidChannel::read_stream(std::function<void(std::uint64_t)> fn) {
  reader_ = Reader::kStream;
  stream_fn_ = std::move(fn);
  const std::uint64_t pending = revealed_ - consumed_;
  consumed_ = revealed_;
  resume_sender();
  if (pending > 0 && stream_fn_) {
    stream_fn_(pending);
  }
}

void FluidChannel::sync_stream() {
  if (reader_ == Reader::kStream) {
    reveal(std::min(net_.arrived(flow_), queued_));
  }
}

void FluidChannel::reveal(std::uint64_t end) {
  if (end <= revealed_) {
    return;
  }
  revealed_ = end;
  if (reader_ == Reader::kSteps) {
    return;
  }
  const std::uint64_t n = revealed_ - consumed_;
  consumed_ = revealed_;
  if (reader_ == Reader::kStream && n > 0 && stream_fn_) {
    stream_fn_(n);
  }
}

void FluidChannel::arm_step() {
  if (step_armed_ || !receiver_open_ || !sender_open_) {
    return;
  }
  std::uint64_t end = 0;
  if (revealed_ < content_.size()) {
    end = content_.size();
  } else if (reader_ == Reader::kSteps && revealed_ < queued_) {
    end = std::min(revealed_ + quantum_, queued_);
  } else {
    return;
  }
  step_armed_ = true;
  net_.notify_arrival(flow_, end, guarded([end](FluidChannel& c) {
                        c.on_step(end);
                      }));
}

void FluidChannel::on_step(std::uint64_t end) {
  step_armed_ = false;
  if (end > revealed_) {
    const std::uint64_t before = consumed_;
    reveal(end);
    if (receiver.readable) {
      receiver.readable();
    }
    // Flow control: a reader that took nothing at this step while its
    // unread bytes fill the receive buffer stops the sender. Only unread
    // *arrived* bytes count: the flow's window/RTT cap already bounds the
    // bytes in flight.
    if (reader_ == Reader::kSteps && consumed_ == before &&
        readable() >= recv_buffer_ && !paused_ && sender_open_) {
      paused_ = true;
      net_.set_limit(flow_, net_.transmitted(flow_));
    }
  }
  arm_step();
}

bool FluidChannel::hold_fin(std::uint64_t end) {
  if (revealed_ >= end || net_.arrived(flow_) >= end) {
    reveal(end);
    return true;
  }
  if (!fin_armed_ && sender_open_) {
    fin_armed_ = true;
    net_.notify_arrival(flow_, end, guarded([end](FluidChannel& c) {
                          c.fin_armed_ = false;
                          c.reveal(end);
                          if (c.receiver.arrived) {
                            c.receiver.arrived();
                          }
                        }));
  }
  return false;
}

void FluidChannel::resume_sender() {
  if (!paused_ || readable() >= recv_buffer_) {
    return;
  }
  paused_ = false;
  if (sender_open_ && receiver_open_) {
    net_.set_limit(flow_, kNoLimit);
  }
}

void FluidChannel::close_receiver() {
  if (!receiver_open_) {
    return;
  }
  receiver_open_ = false;
  receiver = {};
  stream_fn_ = nullptr;
  paused_ = false;
  if (sender_open_) {
    // No acknowledgement comes back: the sender stops once the window past
    // what had arrived is out.
    net_.set_limit(flow_, std::max(net_.transmitted(flow_),
                                   net_.arrived(flow_) + window_));
  }
}

// ---------------------------------------------------------------------------
// Relay splices

FluidSpliceId FluidChannel::splice_upstream(std::uint64_t capacity,
                                            std::uint64_t& payload) {
  payload = queued_ - consumed_;
  if (payload == 0 || !sender_open_) {
    return kInvalidSplice;
  }
  const std::uint64_t base = consumed_;
  reader_ = Reader::kSpliced;
  consumed_ = revealed_;
  resume_sender();
  return net_.splice(flow_, base, capacity);
}

bool FluidChannel::splice_downstream(FluidSpliceId splice,
                                     std::uint64_t payload) {
  const std::uint64_t base = queued_;
  const bool queued = write_stream(payload);
  net_.attach_child(splice, flow_, base);
  return queued;
}

}  // namespace lsl::flow
