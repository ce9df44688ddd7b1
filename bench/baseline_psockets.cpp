// Baseline: PSockets-style parallel TCP striping (related work, section 5).
//
// The paper contrasts LSL's *serial* sockets with PSockets' *parallel*
// sockets. On a loss-limited high-RTT path, N parallel connections
// multiply the aggregate Mathis window by ~N, while LSL shortens each
// control loop instead. This bench runs both on the UCSB->UIUC scenario.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "exp/raw_tcp.hpp"
#include "testbed/abilene_paths.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lsl;
  using namespace lsl::time_literals;
  bench::banner(
      "Baseline -- PSockets-style parallel sockets vs serial (LSL) sockets",
      "Parallel striping attacks the same TCP limitation from the "
      "application; logistical forwarding attacks it in the network. Both "
      "beat a single direct connection on the lossy 70 ms path.");

  const auto scenario = testbed::ucsb_uiuc_via_denver();
  const std::uint64_t bytes = mib(32);
  const std::size_t iterations = bench::scaled(5, 2);

  Table table({"configuration", "Mbit/s"});

  // Parallel direct connections (1, 2, 4, 8 stripes) over the direct link.
  for (const std::size_t streams : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    OnlineStats bw;
    for (std::size_t it = 0; it < iterations; ++it) {
      testbed::PathTestbed bed(scenario, 4000 + it);
      const auto r = exp::run_raw_transfer(
          bed.harness().simulator(), bed.harness().stack(bed.src()),
          bed.harness().stack(bed.dst()), bytes,
          tcp::TcpOptions{}.with_buffers(testbed::kEndpointBuffer), streams,
          SimTime::seconds(3600), /*base_port=*/6001);
      if (r.completed) {
        bw.add(r.goodput.megabits_per_second());
      }
    }
    char label[64];
    std::snprintf(label, sizeof label, "direct, %zu parallel socket%s",
                  streams, streams == 1 ? "" : "s");
    table.add_row({label, Table::num(bw.mean(), 1)});
  }

  // LSL serial sockets through the Denver depot, single and striped.
  for (const std::uint16_t streams : {std::uint16_t{1}, std::uint16_t{4}}) {
    OnlineStats bw;
    for (std::size_t it = 0; it < iterations; ++it) {
      testbed::PathTestbed bed(scenario, 4000 + it);
      auto spec = bed.make_spec(/*via_depot=*/true, bytes);
      spec.streams = streams;
      const auto handle = bed.harness().launch(bed.src(), spec);
      const auto r = bed.harness().wait(handle, 3600_s);
      if (r.completed) {
        bw.add(r.goodput.megabits_per_second());
      }
    }
    char label[64];
    std::snprintf(label, sizeof label, "LSL via depot, %u serial socket%s",
                  streams, streams == 1 ? "" : "s x stripes");
    table.add_row({label, Table::num(bw.mean(), 1)});
  }

  table.print(std::cout);
  std::printf("\nStriping and logistical forwarding compose: the striped "
              "relay attacks the\nloss equilibrium from both ends "
              "(aggregate window x N, control loop / 2).\n");
  return 0;
}
