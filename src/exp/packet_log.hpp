// Packet-level trace capture: the simulator's tcpdump.
//
// The paper's section 3 analysis came from tcpdump captures at the senders;
// this logger provides the equivalent view inside the simulator. It taps a
// link's delivery path, records one entry per packet, and can render a
// human-readable trace or answer simple queries (used by tests to assert on
// protocol behaviour like handshake shape and retransmission ordering).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "util/time.hpp"

namespace lsl::exp {

struct PacketLogEntry {
  SimTime at;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  net::Port src_port = 0;
  net::Port dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint64_t wnd = 0;
  std::uint8_t flags = 0;
  std::uint32_t payload = 0;

  [[nodiscard]] bool has(net::TcpFlags f) const { return (flags & f) != 0; }
  /// tcpdump-ish one-liner: "1.204s 0:49152 > 2:4911 SA seq=0 ack=1 len=0".
  [[nodiscard]] std::string str() const;
};

class PacketLog {
 public:
  PacketLog() = default;

  /// Tap `link`: every delivered packet is recorded, then handed to the
  /// link's original receiver. Call before traffic starts; multiple links
  /// can feed one log (entries interleave by delivery time). The log must
  /// outlive the link's traffic.
  void attach(net::Link& link, sim::Simulator& simulator);

  [[nodiscard]] const std::vector<PacketLogEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// Entries matching a predicate.
  [[nodiscard]] std::vector<PacketLogEntry> filter(
      const std::function<bool(const PacketLogEntry&)>& pred) const;

  /// Count of entries carrying the given flag.
  [[nodiscard]] std::size_t count_flag(net::TcpFlags flag) const;

  /// Payload-carrying segments whose [seq, seq+len) range was already seen
  /// on this log (an on-the-wire view of retransmissions).
  [[nodiscard]] std::size_t retransmitted_segments() const;

  void print(std::ostream& os) const;

 private:
  /// Sits in one link's delivery seam: records, then forwards.
  class Tap final : public net::PacketSink {
   public:
    Tap(PacketLog& log, sim::Simulator& simulator, net::PacketSink* next)
        : log_(log), sim_(simulator), next_(next) {}
    void deliver(net::Packet&& packet) override;

   private:
    PacketLog& log_;
    sim::Simulator& sim_;
    net::PacketSink* next_;
  };

  std::vector<PacketLogEntry> entries_;
  std::vector<std::unique_ptr<Tap>> taps_;
};

}  // namespace lsl::exp
