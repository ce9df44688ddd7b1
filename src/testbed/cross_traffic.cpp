#include "testbed/cross_traffic.hpp"

#include "util/assert.hpp"

namespace lsl::testbed {

namespace {

/// The sink port every background flow targets.
constexpr net::Port kCrossTrafficPort = 7100;

}  // namespace

struct CrossTraffic::Slot {
  tcp::Connection::Ptr conn;
  sim::EventId pending_start;
  std::uint64_t queued = 0;
  std::uint64_t target = 0;
};

CrossTraffic::CrossTraffic(exp::SimHarness& harness,
                           CrossTrafficConfig config, std::uint64_t seed)
    : harness_(harness), config_(config), rng_(seed) {
  LSL_ASSERT_MSG(harness_.host_count() >= 2,
                 "cross traffic needs at least two hosts");
  // One sink listener per host; every background flow targets it.
  for (std::size_t host = 0; host < harness_.host_count(); ++host) {
    harness_.stack(static_cast<net::NodeId>(host))
        .listen(kCrossTrafficPort, [](tcp::Connection::Ptr conn) {
          conn->on_readable = [c = conn.get()] {
            c->read(c->readable_bytes());
          };
          conn->on_eof = [c = conn.get()] {
            c->read(c->readable_bytes());
            c->close();
          };
        }, tcp::TcpOptions{}.with_buffers(config_.tcp_buffer));
  }
  for (std::size_t slot = 0; slot < config_.flows; ++slot) {
    slots_.push_back(std::make_unique<Slot>());
    start_burst(slot);
  }
}

CrossTraffic::~CrossTraffic() {
  stopping_ = true;
  for (auto& slot : slots_) {
    if (slot->pending_start.valid()) {
      harness_.simulator().cancel(slot->pending_start);
    }
    if (slot->conn) {
      slot->conn->on_connected = nullptr;
      slot->conn->on_writable = nullptr;
      slot->conn->on_closed = nullptr;
    }
  }
}

void CrossTraffic::start_burst(std::size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  slot.pending_start = sim::EventId{};

  const std::size_t n = harness_.host_count();
  const auto src = static_cast<net::NodeId>(rng_.pick_index(n));
  auto dst = static_cast<net::NodeId>(rng_.pick_index(n));
  if (dst == src) {
    dst = static_cast<net::NodeId>((dst + 1) % n);
  }
  slot.target = 1 + static_cast<std::uint64_t>(
                        rng_.exponential(static_cast<double>(
                            config_.mean_burst_bytes)));
  slot.queued = 0;
  slot.conn = harness_.stack(src).connect(
      dst, kCrossTrafficPort,
      tcp::TcpOptions{}.with_buffers(config_.tcp_buffer));

  auto* conn = slot.conn.get();
  const auto pump = [this, slot_index, conn] {
    if (stopping_) {
      return;
    }
    Slot& s = *slots_[slot_index];
    while (s.queued < s.target) {
      const std::uint64_t n_sent = conn->write_synthetic(s.target - s.queued);
      s.queued += n_sent;
      bytes_injected_ += n_sent;
      if (n_sent == 0) {
        return;
      }
    }
    conn->close();
  };
  conn->on_connected = pump;
  conn->on_writable = pump;
  conn->on_closed = [this, slot_index] {
    if (stopping_) {
      return;
    }
    ++bursts_completed_;
    schedule_next(slot_index);
  };
}

void CrossTraffic::schedule_next(std::size_t slot_index) {
  const double gap_s =
      rng_.exponential(config_.mean_gap.to_seconds());
  slots_[slot_index]->pending_start = harness_.simulator().schedule_after(
      SimTime::from_seconds(gap_s), [this, slot_index] {
        if (!stopping_) {
          start_burst(slot_index);
        }
      });
}

}  // namespace lsl::testbed
