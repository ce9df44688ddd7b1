// Figure 5: average data transferred over time (acknowledged sequence
// number), UCSB -> UIUC via Denver, 64 MB transfers, averaged over 10 runs.
// The signature feature is sublink 1's knee at ~32 MB: the depot offers
// 32 MB of total buffering (2 x 8 MB kernel + 16 MB user), so the fast
// Denver leg races ahead exactly that far before the slow leg's drain rate
// takes over.
#include <cstdio>

#include "bench_common.hpp"
#include "seqtrace_figure.hpp"

int main() {
  using namespace lsl::time_literals;
  lsl::bench::banner(
      "Figure 5 -- Acked sequence number over time, UCSB -> UIUC via Denver "
      "(64MB, average of 10 runs)",
      "Paper claim: sublink 1 grows very fast up to the 32 MB depot buffer "
      "mark, then its slope collapses to match sublink 2 (the bottleneck).");
  const auto scenario = lsl::testbed::ucsb_uiuc_via_denver();
  std::printf("Depot pipeline: 2 x %s kernel + %s user = %s total\n\n",
              lsl::format_bytes(lsl::testbed::kDepotKernelBuffer).c_str(),
              lsl::format_bytes(scenario.depot_user_buffer).c_str(),
              lsl::format_bytes(2 * lsl::testbed::kDepotKernelBuffer +
                                scenario.depot_user_buffer).c_str());
  lsl::bench::run_seqtrace_figure(scenario, lsl::mib(64),
                                  lsl::bench::scaled(10, 3), 40_s, 250_ms);
  return 0;
}
