#include "exp/raw_tcp.hpp"

#include <memory>

#include "util/assert.hpp"

namespace lsl::exp {

namespace {

/// Keeps one sender pumping `bytes` into a socket, closing when done.
void drive_sender(const tcp::Connection::Ptr& conn, std::uint64_t bytes) {
  auto queued = std::make_shared<std::uint64_t>(0);
  const auto pump = [c = conn.get(), queued, bytes] {
    while (*queued < bytes) {
      const std::uint64_t n = c->write_synthetic(bytes - *queued);
      *queued += n;
      if (n == 0) {
        return;
      }
    }
    c->close();
  };
  conn->on_connected = pump;
  conn->on_writable = pump;
}

}  // namespace

RawTransferResult run_raw_transfer(sim::Simulator& sim, tcp::TcpStack& src,
                                   tcp::TcpStack& dst, std::uint64_t bytes,
                                   const tcp::TcpOptions& options,
                                   std::size_t streams, SimTime deadline,
                                   net::Port base_port) {
  LSL_ASSERT(streams > 0);
  RawTransferResult result;
  std::uint64_t received = 0;
  std::size_t done = 0;
  SimTime finished_at = SimTime::zero();

  for (std::size_t s = 0; s < streams; ++s) {
    const auto port = static_cast<net::Port>(base_port + s);
    dst.listen(port, [&](tcp::Connection::Ptr conn) {
      conn->on_readable = [&received, c = conn.get()] {
        received += c->read(c->readable_bytes()).n;
      };
      conn->on_eof = [&, c = conn.get()] {
        received += c->read(c->readable_bytes()).n;
        ++done;
        finished_at = sim.now();
        c->close();
      };
    }, options);
  }

  const SimTime start = sim.now();
  const std::uint64_t stripe = bytes / streams;
  std::vector<tcp::Connection::Ptr> clients;
  for (std::size_t s = 0; s < streams; ++s) {
    const std::uint64_t this_stripe =
        (s + 1 == streams) ? bytes - stripe * (streams - 1) : stripe;
    auto client =
        src.connect(dst.node_id(),
                    static_cast<net::Port>(base_port + s), options);
    drive_sender(client, this_stripe);
    clients.push_back(std::move(client));
  }

  while (sim.now() < deadline && done < streams) {
    if (!sim.step()) {
      break;
    }
  }
  sim.run(sim.now() + SimTime::seconds(2));

  result.completed = done == streams;
  result.bytes_delivered = received;
  result.elapsed = (result.completed ? finished_at : sim.now()) - start;
  result.sender_stats = clients.front()->stats();
  result.goodput = throughput_of(received, result.elapsed);
  for (std::size_t s = 0; s < streams; ++s) {
    dst.stop_listening(static_cast<net::Port>(base_port + s));
  }
  return result;
}

}  // namespace lsl::exp
