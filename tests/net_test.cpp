#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "fixtures.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace lsl::net {
namespace {

using namespace lsl::time_literals;
using testing::SinkFn;

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload,
                   std::uint64_t uid = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = payload;
  p.uid = uid;
  return p;
}

/// Protocol stack stand-in: records when each packet addressed to its node
/// arrives.
struct SinkStack : ProtocolStack {
  explicit SinkStack(sim::Simulator& simulator) : sim(simulator) {}
  void receive(Packet&&) override { arrivals.push_back(sim.now()); }

  sim::Simulator& sim;
  std::vector<SimTime> arrivals;
};

TEST(PacketTest, WireBytesIncludesOverhead) {
  EXPECT_EQ(make_packet(0, 1, 1460).wire_bytes(), 1500u);
  EXPECT_EQ(make_packet(0, 1, 0).wire_bytes(), kPacketOverheadBytes);
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 10_ms;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(1));
  SimTime arrival = SimTime::zero();
  SinkFn sink([&](Packet&) { arrival = sim.now(); });
  link.set_receiver(&sink);
  link.enqueue(make_packet(0, 1, 1460));
  sim.run();
  // 1500B at 100Mbit = 120us serialization + 10ms propagation.
  EXPECT_EQ(arrival, 10_ms + 120_us);
}

TEST(LinkTest, SerializesBackToBack) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = SimTime::zero();
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(1));
  std::vector<SimTime> arrivals;
  SinkFn sink([&](Packet&) { arrivals.push_back(sim.now()); });
  link.set_receiver(&sink);
  link.enqueue(make_packet(0, 1, 1460));
  link.enqueue(make_packet(0, 1, 1460));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 120_us);
  EXPECT_EQ(arrivals[1], 240_us);
}

TEST(LinkTest, DropTailWhenQueueFull) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(1);  // slow, so the queue backs up
  cfg.queue_capacity_bytes = 3000;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(1));
  int delivered = 0;
  SinkFn sink([&](Packet&) { ++delivered; });
  link.set_receiver(&sink);
  for (int i = 0; i < 5; ++i) {
    link.enqueue(make_packet(0, 1, 1460));
  }
  sim.run();
  EXPECT_EQ(delivered, 2);  // 2 x 1500B fit in 3000B
  EXPECT_EQ(link.stats().packets_dropped_queue, 3u);
}

TEST(LinkTest, BernoulliLossDropsRoughlyAtRate) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::gbps(10);
  cfg.propagation_delay = SimTime::zero();
  cfg.queue_capacity_bytes = 1ULL << 40;
  cfg.loss_rate = 0.1;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(99));
  int delivered = 0;
  SinkFn sink([&](Packet&) { ++delivered; });
  link.set_receiver(&sink);
  constexpr int kPackets = 5000;
  for (int i = 0; i < kPackets; ++i) {
    link.enqueue(make_packet(0, 1, 100));
  }
  sim.run();
  const double loss =
      1.0 - static_cast<double>(delivered) / static_cast<double>(kPackets);
  EXPECT_NEAR(loss, 0.1, 0.02);
  EXPECT_EQ(link.stats().packets_dropped_loss,
            static_cast<std::uint64_t>(kPackets - delivered));
}

TEST(LinkTest, StatsCountBytes) {
  sim::Simulator sim;
  LinkConfig cfg;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(1));
  SinkFn sink([](Packet&) {});
  link.set_receiver(&sink);
  link.enqueue(make_packet(0, 1, 960));
  sim.run();
  EXPECT_EQ(link.stats().packets_sent, 1u);
  EXPECT_EQ(link.stats().bytes_sent, 1000u);
}

TEST(TopologyTest, DirectDelivery) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_duplex_link(a, b, LinkConfig{});
  topo.compute_routes();
  SinkStack sink(sim);
  topo.node(b).set_stack(&sink);
  topo.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(TopologyTest, MultiHopForwarding) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId r = topo.add_node("router");
  const NodeId b = topo.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  topo.add_duplex_link(a, r, cfg);
  topo.add_duplex_link(r, b, cfg);
  topo.compute_routes();
  SinkStack sink(sim);
  topo.node(b).set_stack(&sink);
  topo.send(make_packet(a, b, 0));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_GT(sink.arrivals[0], 10_ms);  // two propagation hops
  EXPECT_EQ(topo.node(r).packets_forwarded(), 1u);
}

TEST(TopologyTest, ShortestDelayPathChosen) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId slow = topo.add_node("slow");
  const NodeId fast = topo.add_node("fast");
  const NodeId b = topo.add_node("b");
  LinkConfig slow_cfg;
  slow_cfg.propagation_delay = 50_ms;
  LinkConfig fast_cfg;
  fast_cfg.propagation_delay = 5_ms;
  topo.add_duplex_link(a, slow, slow_cfg);
  topo.add_duplex_link(slow, b, slow_cfg);
  topo.add_duplex_link(a, fast, fast_cfg);
  topo.add_duplex_link(fast, b, fast_cfg);
  topo.compute_routes();
  SinkStack sink(sim);
  topo.node(b).set_stack(&sink);
  topo.send(make_packet(a, b, 0));
  sim.run();
  EXPECT_EQ(topo.node(fast).packets_forwarded(), 1u);
  EXPECT_EQ(topo.node(slow).packets_forwarded(), 0u);
}

TEST(TopologyTest, ExplicitRouteOverride) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId r1 = topo.add_node("r1");
  const NodeId r2 = topo.add_node("r2");
  const NodeId b = topo.add_node("b");
  LinkConfig cfg;
  topo.add_duplex_link(a, r1, cfg);
  topo.add_duplex_link(r1, b, cfg);
  topo.add_duplex_link(a, r2, cfg);
  topo.add_duplex_link(r2, b, cfg);
  topo.compute_routes();
  // Pin a->b through r2 regardless of what Dijkstra chose.
  topo.node(a).set_route(b, topo.link_between(a, r2));
  SinkStack sink(sim);
  topo.node(b).set_stack(&sink);
  topo.send(make_packet(a, b, 0));
  sim.run();
  EXPECT_EQ(topo.node(r2).packets_forwarded(), 1u);
}

TEST(TopologyTest, FindByName) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  topo.add_node("ash.ucsb.edu", "ucsb.edu");
  const NodeId b = topo.add_node("bell.uiuc.edu", "uiuc.edu");
  EXPECT_EQ(topo.find("bell.uiuc.edu"), b);
  EXPECT_EQ(topo.node(b).site(), "uiuc.edu");
}

TEST(TopologyTest, LinkBetweenReturnsNullWhenNotAdjacent) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  topo.add_duplex_link(a, b, LinkConfig{});
  EXPECT_NE(topo.link_between(a, b), nullptr);
  EXPECT_EQ(topo.link_between(a, c), nullptr);
}

// ---------------------------------------------------------------------------
// Equivalence with the two-event link. TwoEventLink is the link as it was
// before in-flight packets shared a FIFO behind one pending event: it
// schedules one kernel event per serialization and one per propagation.
// Both models get the same traffic and must agree on every packet's fate
// and delivery time, and on the final counters.

class TwoEventLink {
 public:
  /// Link's signature; this model keeps packets in its own closures.
  TwoEventLink(sim::Simulator& simulator, PacketSlab& /*packets*/,
               LinkConfig config, Rng rng)
      : sim_(simulator), config_(config), rng_(rng) {}

  void set_receiver(PacketSink* receiver) { receiver_ = receiver; }
  void set_loss_rate(double p) { config_.loss_rate = p; }
  void set_rate(Bandwidth rate) { config_.rate = rate; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }

  void enqueue(Packet packet) {
    const std::uint64_t size = packet.wire_bytes();
    if (queued_bytes_ + size > config_.queue_capacity_bytes) {
      ++stats_.packets_dropped_queue;
      return;
    }
    stats_.queue_bytes_observed += queued_bytes_;
    queued_bytes_ += size;
    stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
    queue_.push_back(std::move(packet));
    if (!transmitting_) {
      start_transmission();
    }
  }

 private:
  void start_transmission() {
    transmitting_ = true;
    const SimTime tx = config_.rate.transmit_time(queue_.front().wire_bytes());
    sim_.schedule_after(tx, [this] { finish_transmission(); });
  }

  void finish_transmission() {
    Packet packet = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= packet.wire_bytes();
    ++stats_.packets_sent;
    stats_.bytes_sent += packet.wire_bytes();
    if (rng_.chance(config_.loss_rate)) {
      ++stats_.packets_dropped_loss;
    } else {
      SimTime delay = config_.propagation_delay;
      if (config_.jitter > SimTime::zero()) {
        delay += SimTime::nanoseconds(static_cast<std::int64_t>(
            rng_.next_below(static_cast<std::uint64_t>(config_.jitter.ns()))));
      }
      sim_.schedule_after(delay, [this, p = std::move(packet)]() mutable {
        receiver_->deliver(std::move(p));
      });
    }
    if (!queue_.empty()) {
      start_transmission();
    } else {
      transmitting_ = false;
    }
  }

  sim::Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  PacketSink* receiver_ = nullptr;
  std::deque<Packet> queue_;
  std::uint64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  LinkStats stats_;
};

/// One step of offered traffic: a packet, or a change to the link.
struct TrafficStep {
  enum Kind { kPacket, kLossRate, kRate };
  Kind kind = kPacket;
  SimTime at;
  std::uint32_t payload = 0;
  double loss_rate = 0.0;
  Bandwidth rate;
};

struct Traffic {
  LinkConfig config;
  std::vector<TrafficStep> steps;
};

/// What a link did with the traffic: deliveries in order as (uid, time),
/// which packets the queue dropped (by step index), and the counters.
struct Outcome {
  std::vector<std::pair<std::uint64_t, SimTime>> deliveries;
  std::vector<int> queue_dropped;
  LinkStats stats;
  std::uint64_t link_events = 0;
};

/// Replays `traffic` on a fresh link of type L. Every step is scheduled
/// before the run, so at a tie it runs before anything the link schedules:
/// in both models a change at time t precedes a serialization ending at t.
template <typename L>
Outcome replay(const Traffic& traffic, std::uint64_t seed) {
  sim::Simulator sim;
  PacketSlab packets;
  L link(sim, packets, traffic.config, Rng(seed));
  Outcome out;
  out.queue_dropped.assign(traffic.steps.size(), 0);
  SinkFn sink(
      [&](Packet& p) { out.deliveries.emplace_back(p.uid, sim.now()); });
  link.set_receiver(&sink);
  for (std::size_t i = 0; i < traffic.steps.size(); ++i) {
    const TrafficStep& step = traffic.steps[i];
    sim.schedule_at(step.at, [&link, &out, &step, i] {
      switch (step.kind) {
        case TrafficStep::kPacket: {
          const std::uint64_t before = link.stats().packets_dropped_queue;
          link.enqueue(make_packet(0, 1, step.payload, i));
          out.queue_dropped[i] =
              link.stats().packets_dropped_queue > before ? 1 : 0;
          break;
        }
        case TrafficStep::kLossRate:
          link.set_loss_rate(step.loss_rate);
          break;
        case TrafficStep::kRate:
          link.set_rate(step.rate);
          break;
      }
    });
  }
  sim.run();
  out.stats = link.stats();
  out.link_events = sim.events_executed() - traffic.steps.size();
  return out;
}

/// Random traffic: bursts that build a backlog behind a drop-tail queue,
/// gaps that drain it, link-down windows (loss 1.0) and restores, and rate
/// changes (brownouts) landing while packets are queued and in service.
Traffic random_traffic(std::uint64_t seed) {
  Rng rng(seed);
  Traffic t;
  t.config.rate = Bandwidth::mbps(rng.uniform(5.0, 200.0));
  // Zero delay puts the link's own event on its serialization completions.
  t.config.propagation_delay =
      rng.chance(0.25) ? SimTime::zero()
                       : SimTime::nanoseconds(rng.uniform_int(1, 5'000'000));
  t.config.queue_capacity_bytes =
      static_cast<std::uint64_t>(rng.uniform_int(3, 40)) * 1500;
  const double base_loss = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 0.2);
  t.config.loss_rate = base_loss;
  if (rng.chance(0.3)) {
    t.config.jitter = SimTime::nanoseconds(rng.uniform_int(1, 3'000'000));
  }
  const std::int64_t mtu_tx = t.config.rate.transmit_time(1500).ns();
  SimTime now = SimTime::zero();
  for (int i = 0; i < 600; ++i) {
    if (!rng.chance(0.4)) {
      now += SimTime::nanoseconds(rng.uniform_int(0, 2 * mtu_tx));
    }
    TrafficStep step;
    step.at = now;
    const double r = rng.next_double();
    if (r < 0.01) {
      step.kind = TrafficStep::kLossRate;  // link down: chance() draws nothing
      step.loss_rate = 1.0;
    } else if (r < 0.05) {
      step.kind = TrafficStep::kLossRate;  // restore, or a new loss rate
      step.loss_rate = rng.chance(0.5) ? base_loss : rng.uniform(0.0, 0.3);
    } else if (r < 0.07) {
      step.kind = TrafficStep::kRate;
      step.rate = Bandwidth::mbps(rng.uniform(1.0, 200.0));
    } else {
      step.payload = static_cast<std::uint32_t>(rng.uniform_int(0, 1460));
    }
    t.steps.push_back(step);
  }
  return t;
}

void expect_same_outcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.queue_dropped, want.queue_dropped);
  EXPECT_EQ(got.stats.packets_sent, want.stats.packets_sent);
  EXPECT_EQ(got.stats.bytes_sent, want.stats.bytes_sent);
  EXPECT_EQ(got.stats.packets_dropped_queue, want.stats.packets_dropped_queue);
  EXPECT_EQ(got.stats.packets_dropped_loss, want.stats.packets_dropped_loss);
  EXPECT_EQ(got.stats.max_queue_bytes, want.stats.max_queue_bytes);
  EXPECT_EQ(got.stats.queue_bytes_observed, want.stats.queue_bytes_observed);
}

TEST(LinkEquivalenceTest, MatchesTwoEventLinkOnRandomTraffic) {
  int jittered = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    SCOPED_TRACE(seed);
    const Traffic traffic = random_traffic(seed);
    const Outcome want = replay<TwoEventLink>(traffic, seed);
    const Outcome got = replay<Link>(traffic, seed);
    expect_same_outcome(got, want);
    if (traffic.config.jitter > SimTime::zero()) {
      ++jittered;
      continue;
    }
    // One kernel event per delivered packet; a lost packet costs at most
    // the one event armed on it while it was being serialized.
    EXPECT_LE(got.link_events,
              got.deliveries.size() + got.stats.packets_dropped_loss);
  }
  EXPECT_GT(jittered, 10);
}

TEST(LinkEquivalenceTest, LinkDownDropsQueuedAndInServicePackets) {
  // 1500-byte packets take 1 ms at 12 Mbit/s. Five offered at t=0; the
  // link goes down at 1.5 ms (packet 1 in service, 2-4 queued) and comes
  // back at 3.5 ms: packets 1 and 2 complete while down and are lost.
  Traffic traffic;
  traffic.config.rate = Bandwidth::mbps(12);
  traffic.config.propagation_delay = 2_ms;
  traffic.config.loss_rate = 0.0;
  for (int i = 0; i < 5; ++i) {
    traffic.steps.push_back({TrafficStep::kPacket, SimTime::zero(), 1460});
  }
  traffic.steps.push_back(
      {TrafficStep::kLossRate, SimTime::microseconds(1500), 0, 1.0});
  traffic.steps.push_back(
      {TrafficStep::kLossRate, SimTime::microseconds(3500), 0, 0.0});
  const Outcome got = replay<Link>(traffic, 1);
  expect_same_outcome(got, replay<TwoEventLink>(traffic, 1));
  const std::vector<std::pair<std::uint64_t, SimTime>> want = {
      {0, 3_ms}, {3, 6_ms}, {4, 7_ms}};
  EXPECT_EQ(got.deliveries, want);
  EXPECT_EQ(got.stats.packets_dropped_loss, 2u);
}

TEST(LinkEquivalenceTest, BrownoutSlowsQueuedPacketsNotTheOneInService) {
  // At 0.5 ms the rate drops to a quarter: packet 0 (in service) still
  // completes at 1 ms, packets 1 and 2 take 4 ms each.
  Traffic traffic;
  traffic.config.rate = Bandwidth::mbps(12);
  traffic.config.propagation_delay = SimTime::zero();
  for (int i = 0; i < 3; ++i) {
    traffic.steps.push_back({TrafficStep::kPacket, SimTime::zero(), 1460});
  }
  traffic.steps.push_back({TrafficStep::kRate, SimTime::microseconds(500), 0,
                           0.0, Bandwidth::mbps(3)});
  const Outcome got = replay<Link>(traffic, 1);
  expect_same_outcome(got, replay<TwoEventLink>(traffic, 1));
  const std::vector<std::pair<std::uint64_t, SimTime>> want = {
      {0, 1_ms}, {1, 5_ms}, {2, 9_ms}};
  EXPECT_EQ(got.deliveries, want);
}

TEST(LinkTest, OnePendingEventWhateverTheBacklog) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 10_ms;
  cfg.queue_capacity_bytes = 1ULL << 30;
  PacketSlab packets;
  Link link(sim, packets, cfg, Rng(1));
  int delivered = 0;
  SinkFn sink([&](Packet&) { ++delivered; });
  link.set_receiver(&sink);
  for (int i = 0; i < 1000; ++i) {
    link.enqueue(make_packet(0, 1, 1460));
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(sim.events_executed(), 1000u);
  // The firing event stays live until it returns, so the heap peaks at two.
  EXPECT_LE(sim.profile().queue_high_water, 2u);
}

}  // namespace
}  // namespace lsl::net
