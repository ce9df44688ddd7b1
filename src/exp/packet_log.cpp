#include "exp/packet_log.hpp"

#include <cstdio>
#include <set>
#include <utility>

#include "util/assert.hpp"

namespace lsl::exp {

std::string PacketLogEntry::str() const {
  std::string flag_str;
  if (has(net::kFlagSyn)) {
    flag_str += 'S';
  }
  if (has(net::kFlagFin)) {
    flag_str += 'F';
  }
  if (has(net::kFlagRst)) {
    flag_str += 'R';
  }
  if (has(net::kFlagAck)) {
    flag_str += 'A';
  }
  if (flag_str.empty()) {
    flag_str.push_back('.');
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s %u:%u > %u:%u %s seq=%llu ack=%llu wnd=%llu len=%u",
                at.str().c_str(), src, src_port, dst, dst_port,
                flag_str.c_str(), static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(ack),
                static_cast<unsigned long long>(wnd), payload);
  return buf;
}

void PacketLog::attach(net::Link& link, sim::Simulator& simulator) {
  LSL_ASSERT_MSG(link.receiver() != nullptr, "tapped link has no receiver");
  taps_.push_back(std::make_unique<Tap>(*this, simulator, link.receiver()));
  link.set_receiver(taps_.back().get());
}

void PacketLog::Tap::deliver(net::Packet&& packet) {
  PacketLogEntry entry;
  entry.at = sim_.now();
  entry.src = packet.src;
  entry.dst = packet.dst;
  entry.src_port = packet.tcp.src_port;
  entry.dst_port = packet.tcp.dst_port;
  entry.seq = packet.tcp.seq;
  entry.ack = packet.tcp.ack;
  entry.wnd = packet.tcp.wnd;
  entry.flags = packet.tcp.flags;
  entry.payload = packet.payload_bytes;
  log_.entries_.push_back(entry);
  next_->deliver(std::move(packet));
}

std::vector<PacketLogEntry> PacketLog::filter(
    const std::function<bool(const PacketLogEntry&)>& pred) const {
  std::vector<PacketLogEntry> out;
  for (const auto& entry : entries_) {
    if (pred(entry)) {
      out.push_back(entry);
    }
  }
  return out;
}

std::size_t PacketLog::count_flag(net::TcpFlags flag) const {
  std::size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry.has(flag)) {
      ++count;
    }
  }
  return count;
}

std::size_t PacketLog::retransmitted_segments() const {
  // Key data segments by (flow, starting sequence); repeats are wire-level
  // retransmissions.
  std::set<std::tuple<net::NodeId, net::Port, net::Port, std::uint64_t>> seen;
  std::size_t retransmits = 0;
  for (const auto& entry : entries_) {
    if (entry.payload == 0) {
      continue;
    }
    const auto key =
        std::make_tuple(entry.src, entry.src_port, entry.dst_port, entry.seq);
    if (!seen.insert(key).second) {
      ++retransmits;
    }
  }
  return retransmits;
}

void PacketLog::print(std::ostream& os) const {
  for (const auto& entry : entries_) {
    os << entry.str() << '\n';
  }
}

}  // namespace lsl::exp
