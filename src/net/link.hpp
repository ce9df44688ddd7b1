// Unidirectional link with a drop-tail byte-bounded queue, store-and-forward
// serialization, fixed propagation delay, and Bernoulli packet loss.
//
// A link costs one kernel event per delivered packet. Packets wait in a
// drop-tail FIFO behind a busy-until serialization clock; once serialized
// they move to an in-flight FIFO ordered by arrival time. While anything is
// queued or in flight the link keeps exactly one pending kernel event, armed
// at the head packet's arrival. Serialization completions are not events:
// they are settled lazily and in order whenever the link is touched (an
// enqueue, a rate or loss change, a stats read, its own event), each with
// the rate and loss rate that were in force when it completed.
//
// Packets live in the simulation's packet slab (packet_slab.hpp) from
// enqueue to delivery; both FIFOs are lists of handles through its slots.
// A delivered packet goes to the link's receiver, a PacketSink: the
// destination node, or a tap in front of it.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::flow {
class FluidNetwork;
}  // namespace lsl::flow

namespace lsl::net {

struct LinkConfig {
  Bandwidth rate = Bandwidth::mbps(100);
  SimTime propagation_delay = SimTime::milliseconds(1);
  /// Drop-tail queue capacity in bytes (including the packet in service).
  std::uint64_t queue_capacity_bytes = 512 * 1024;
  /// Per-packet Bernoulli loss probability, applied at transmit completion.
  double loss_rate = 0.0;
  /// Maximum extra per-packet propagation delay, drawn uniformly from
  /// [0, jitter]. Nonzero jitter reorders packets (delivery order is by
  /// arrival time), exercising receivers' reassembly and dup-ACK logic.
  SimTime jitter = SimTime::zero();
};

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped_queue = 0;
  std::uint64_t packets_dropped_loss = 0;
  /// High-water mark of queued bytes (buffer-bloat diagnostics).
  std::uint64_t max_queue_bytes = 0;
  /// Sum over transmitted packets of the queue depth they found on
  /// arrival; divide by packets_sent for the mean standing queue.
  std::uint64_t queue_bytes_observed = 0;

  [[nodiscard]] double mean_queue_bytes() const {
    return packets_sent > 0 ? static_cast<double>(queue_bytes_observed) /
                                  static_cast<double>(packets_sent)
                            : 0.0;
  }
};

/// What a link delivers to: the destination Node, or a tap that records
/// or filters packets on their way to it (exp::PacketLog, tests). The
/// packet is the receiver's to move from; it is gone after the call.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet&& packet) = 0;
};

class Link {
 public:
  /// `packets` stores the packets the link holds; it must outlive the link.
  Link(sim::Simulator& simulator, PacketSlab& packets, LinkConfig config,
       Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Install the receiver (the destination node, or a tap in front of it).
  void set_receiver(PacketSink* receiver) { receiver_ = receiver; }
  [[nodiscard]] PacketSink* receiver() const { return receiver_; }

  /// Offer a packet to the link; drops silently if the queue is full.
  void enqueue(Packet&& packet);

  [[nodiscard]] const LinkConfig& config() const { return config_; }

  /// Counters as of now. Settles the serializations completed so far, which
  /// is why this is not const; the settling is invisible to the simulation.
  [[nodiscard]] const LinkStats& stats();

  /// Mutable loss-rate knob; experiments vary path quality mid-run.
  void set_loss_rate(double p);

  /// Mutable rate knob (brownouts throttle links mid-run). Takes effect at
  /// the next packet's serialization; the one in service is unaffected.
  void set_rate(Bandwidth rate);

  /// Mirror this link into the fluid engine: set_rate / set_loss_rate keep
  /// the fluid link's capacity and loss in sync from now on.
  void bind_fluid(flow::FluidNetwork* net, std::uint32_t fluid_id);
  [[nodiscard]] std::uint32_t fluid_link_id() const { return fluid_id_; }

  /// Payload goodput this link sustains at the default MSS: the raw rate
  /// discounted by per-packet header overhead. This is the capacity the
  /// fluid engine shares among flows.
  [[nodiscard]] double fluid_capacity_bps() const;

  /// Packets queued or in flight right now.
  [[nodiscard]] std::size_t packets_held() const {
    return queue_.size + in_flight_.size;
  }

 private:
  using Handle = PacketSlab::Handle;

  /// Complete, in FIFO order, every serialization that ends before `t` (or
  /// at `t` too when `inclusive`): count it, draw its loss, and move it to
  /// the in-flight FIFO. Callers touching the link at `t` from outside pass
  /// inclusive=false, so a completion at exactly `t` sees their change.
  void settle(SimTime t, bool inclusive);
  /// The pending event: deliver the packets arriving now, then re-arm.
  void on_arrival();
  /// Keep one kernel event pending at (or before) the head packet's arrival.
  void arm();
  void sync_fluid();
  /// config_.rate.transmit_time(wire_bytes), cached for the last two sizes
  /// (a bulk flow's segments and its ACKs).
  SimTime transmit_time(std::uint32_t wire_bytes);

  struct TransmitTime {
    std::uint32_t wire_bytes = 0;  ///< 0: empty (no packet is that small)
    SimTime time;
  };

  sim::Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  PacketSink* receiver_ = nullptr;
  PacketSlab& slab_;
  /// Drop-tail queue; its front is being serialized until busy_until_.
  PacketSlab::List queue_;
  std::uint64_t queued_bytes_ = 0;
  SimTime busy_until_ = SimTime::zero();
  /// Serialized, not lost, not yet delivered; sorted by arrival (ties keep
  /// completion order). Without jitter every insert is a push_back.
  PacketSlab::List in_flight_;
  TransmitTime transmit_cache_[2];
  std::uint8_t transmit_cache_next_ = 0;
  sim::EventId event_{};
  SimTime event_at_ = SimTime::zero();
  LinkStats stats_;
  flow::FluidNetwork* fluid_ = nullptr;
  std::uint32_t fluid_id_ = 0;
};

}  // namespace lsl::net
