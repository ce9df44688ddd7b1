#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "flow/fluid.hpp"
#include "util/log.hpp"

namespace lsl::net {

namespace {

const sim::Tag kPropagateTag{"net.link.propagate", sim::Layer::kNet};

}  // namespace

Link::Link(sim::Simulator& simulator, PacketSlab& packets, LinkConfig config,
           Rng rng)
    : sim_(simulator), config_(config), rng_(rng), slab_(packets) {}

const LinkStats& Link::stats() {
  settle(sim_.now(), /*inclusive=*/false);
  return stats_;
}

void Link::set_loss_rate(double p) {
  settle(sim_.now(), /*inclusive=*/false);
  config_.loss_rate = p;
  sync_fluid();
}

void Link::set_rate(Bandwidth rate) {
  settle(sim_.now(), /*inclusive=*/false);
  config_.rate = rate;
  transmit_cache_[0] = transmit_cache_[1] = TransmitTime{};
  sync_fluid();
}

SimTime Link::transmit_time(std::uint32_t wire_bytes) {
  for (const TransmitTime& cached : transmit_cache_) {
    if (cached.wire_bytes == wire_bytes) {
      return cached.time;
    }
  }
  const SimTime time = config_.rate.transmit_time(wire_bytes);
  transmit_cache_[transmit_cache_next_] = TransmitTime{wire_bytes, time};
  transmit_cache_next_ ^= 1U;
  return time;
}

double Link::fluid_capacity_bps() const {
  // Headers ride every packet: a 1500-byte frame carries 1460 payload
  // bytes, so goodput is rate * mss / (mss + overhead). The fluid engine
  // shares this payload capacity directly (it never sees headers), matching
  // what a saturating TCP flow achieves in packet mode.
  return config_.rate.bits_per_second() * flow::kMss /
         (flow::kMss + kPacketOverheadBytes);
}

void Link::bind_fluid(flow::FluidNetwork* net, std::uint32_t fluid_id) {
  fluid_ = net;
  fluid_id_ = fluid_id;
  sync_fluid();
}

void Link::sync_fluid() {
  if (fluid_ != nullptr) {
    fluid_->set_link(fluid_id_, fluid_capacity_bps(), config_.loss_rate);
  }
}

void Link::enqueue(Packet&& packet) {
  const SimTime now = sim_.now();
  settle(now, /*inclusive=*/false);
  const std::uint32_t size = packet.wire_bytes();
  if (queued_bytes_ + size > config_.queue_capacity_bytes) {
    ++stats_.packets_dropped_queue;
    LSL_TRACE("link: queue drop uid=%llu seq=%llu",
              static_cast<unsigned long long>(packet.uid),
              static_cast<unsigned long long>(packet.tcp.seq));
    return;
  }
  stats_.queue_bytes_observed += queued_bytes_;  // depth found on arrival
  queued_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  slab_.push_back(queue_, slab_.put(std::move(packet)));
  if (queue_.size == 1) {
    busy_until_ = now + transmit_time(size);
    arm();
  }
}

void Link::settle(SimTime t, bool inclusive) {
  while (!queue_.empty() &&
         (busy_until_ < t || (inclusive && busy_until_ == t))) {
    const SimTime done = busy_until_;
    const Handle sent = slab_.pop_front(queue_);
    const Packet& packet = slab_.packet(sent);
    queued_bytes_ -= packet.wire_bytes();
    ++stats_.packets_sent;
    stats_.bytes_sent += packet.wire_bytes();
    if (!queue_.empty()) {
      busy_until_ =
          done + transmit_time(slab_.packet(queue_.head).wire_bytes());
    }

    if (rng_.chance(config_.loss_rate)) {
      ++stats_.packets_dropped_loss;
      LSL_TRACE("link: loss drop uid=%llu seq=%llu",
                static_cast<unsigned long long>(packet.uid),
                static_cast<unsigned long long>(packet.tcp.seq));
      slab_.release(sent);
      continue;
    }
    SimTime delay = config_.propagation_delay;
    if (config_.jitter > SimTime::zero()) {
      delay += SimTime::nanoseconds(static_cast<std::int64_t>(
          rng_.next_below(static_cast<std::uint64_t>(config_.jitter.ns()))));
    }
    slab_.arrival(sent) = done + delay;
    slab_.insert_by_arrival(in_flight_, sent);
  }
}

void Link::on_arrival() {
  event_ = sim::EventId{};
  const SimTime now = sim_.now();
  settle(now, /*inclusive=*/true);
  while (!in_flight_.empty() && slab_.arrival(in_flight_.head) <= now) {
    const Handle packet = slab_.pop_front(in_flight_);
    LSL_ASSERT_MSG(receiver_ != nullptr, "link has no receiver");
    // The slot stays taken until the receiver returns: slots never move,
    // so the packet stays put while the call stores packets of its own.
    receiver_->deliver(std::move(slab_.packet(packet)));
    slab_.release(packet);
  }
  arm();
}

void Link::arm() {
  // The head is the earliest in-flight arrival, or the packet in service,
  // which cannot arrive before its serialization ends plus the propagation
  // delay. Its loss and jitter are drawn only when it completes, so an event
  // armed on that bound may fire early and re-arm.
  SimTime head = SimTime::max();
  if (!in_flight_.empty()) {
    head = slab_.arrival(in_flight_.head);
  }
  if (!queue_.empty()) {
    head = std::min(head, busy_until_ + config_.propagation_delay);
  }
  if (head == SimTime::max() || (event_.valid() && event_at_ <= head)) {
    return;
  }
  if (event_.valid()) {
    sim_.cancel(event_);  // jitter: a new packet may arrive before the head
  }
  event_at_ = head;
  event_ =
      sim_.schedule_at(head, [this] { on_arrival(); }, kPropagateTag);
}

}  // namespace lsl::net
