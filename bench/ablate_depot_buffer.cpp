// Ablation: depot pipeline buffering (the mechanism behind Figure 5).
//
// The depot's total pipeline is 2 kernel buffers + the user-space relay
// buffer. More buffering lets the fast upstream leg absorb more of the
// transfer early (deeper "knee"), but end-to-end throughput converges to
// the bottleneck leg regardless -- buffers shape the transient, not the
// steady state.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "exp/trace.hpp"
#include "testbed/abilene_paths.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace lsl;
  using namespace lsl::time_literals;
  bench::banner(
      "Ablation -- depot user-buffer size on the UCSB->UIUC path (64MB)",
      "The sublink-1 'knee' should track 2 x kernel + user buffer; "
      "end-to-end bandwidth should be nearly flat across buffer sizes.");

  const std::size_t iterations = bench::scaled(3, 2);
  Table table({"user buffer", "pipeline total", "sub1 MB at 3s",
               "end-to-end Mbit/s"});
  for (const std::uint64_t user_buf :
       {mib(4), mib(8), mib(16), mib(32), mib(64)}) {
    auto scenario = testbed::ucsb_uiuc_via_denver();
    scenario.depot_user_buffer = user_buf;
    OnlineStats bw;
    OnlineStats sub1_at_3s;
    for (std::size_t it = 0; it < iterations; ++it) {
      testbed::PathTestbed bed(scenario, 3000 + it);
      exp::SeqTrace sub1;
      const auto origin = bed.harness().simulator().now();
      const auto handle = bed.harness().launch_traced(
          bed.src(), bed.make_spec(true, mib(64)),
          [&](tcp::Connection& conn) { sub1.attach(conn, origin); });
      const auto r = bed.harness().wait(handle, 3600_s);
      if (r.completed) {
        bw.add(r.goodput.megabits_per_second());
        sub1_at_3s.add(static_cast<double>(sub1.value_at(3_s)) /
                       static_cast<double>(kMiB));
      }
    }
    const std::uint64_t pipeline = 2 * testbed::kDepotKernelBuffer + user_buf;
    table.add_row({format_bytes(user_buf), format_bytes(pipeline),
                   Table::num(sub1_at_3s.mean(), 1),
                   Table::num(bw.mean(), 1)});
  }
  table.print(std::cout);
  return 0;
}
