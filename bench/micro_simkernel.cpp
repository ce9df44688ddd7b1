// Micro-benchmarks for the simulation substrate: event kernel throughput
// and end-to-end packet cost, which bound how large a packet-level
// experiment the harness can run.
//
// Usage: micro_simkernel [--json <file>] [google-benchmark flags]
//   --json writes one {bench, metric, value} record per benchmark metric
//   (wall seconds per iteration plus any rate counters) so successive PRs
//   can track the kernel's perf trajectory (results/BENCH_kernel.json).
#include <benchmark/benchmark.h>

#include <deque>
#include <string>
#include <vector>

#include "exp/raw_tcp.hpp"
#include "micro_runner.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "tcp/stack.hpp"

namespace {

using namespace lsl;
using namespace lsl::time_literals;

void BM_ScheduleAndRunEvents(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                      [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleAndRunEvents)->Arg(1024)->Arg(65536);

void BM_TimerChurn(benchmark::State& state) {
  // Arm/cancel cycles dominate TCP timer traffic.
  sim::Simulator sim;
  sim::Timer timer(sim, [] {});
  for (auto _ : state) {
    timer.arm(1_ms);
    timer.cancel();
  }
}
BENCHMARK(BM_TimerChurn);

void BM_TimerChurnPendingCancels(benchmark::State& state) {
  // Timer churn against a populated queue: `pending` armed timers sit in
  // the heap while one timer is re-armed/cancelled per iteration. With the
  // generation-counted kernel a cancel is O(1) and the dead entry is
  // dropped lazily, so this should cost about the same as the empty-queue
  // churn above; the tombstone-set kernel paid a hash insert per cancel
  // plus a hash probe per pop.
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  std::deque<sim::Timer> timers;  // Timer is pinned; deque never relocates
  for (std::size_t i = 0; i < pending; ++i) {
    timers.emplace_back(sim, [] {});
    timers.back().arm(SimTime::seconds(3600));
  }
  sim::Timer churn(sim, [] {});
  for (auto _ : state) {
    churn.arm(1_ms);
    churn.cancel();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerChurnPendingCancels)->Arg(1024)->Arg(16384);

void BM_CancelHeavyRun(benchmark::State& state) {
  // Schedule a batch, cancel every other event, then drain: the dispatch
  // loop must skip the dead heap entries without dispatching them.
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> ids(batch);
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = sim.schedule_at(
          SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
    }
    for (std::size_t i = 0; i < batch; i += 2) {
      sim.cancel(ids[i]);
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CancelHeavyRun)->Arg(1024)->Arg(65536);

void BM_ActionSmallCapture(benchmark::State& state) {
  // A capture that fits sim::Action's inline buffer and is trivially
  // copyable: scheduling takes the memcpy fast path, no allocation.
  const auto batch = static_cast<std::size_t>(state.range(0));
  struct Small {
    std::uint64_t a, b;
  };
  static_assert(sim::Action::fits_inline<Small>());
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      Small payload{i, i ^ 0x9e3779b97f4a7c15ULL};
      sim.schedule_at(SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                      [payload, &sink] { sink += payload.a ^ payload.b; });
    }
    benchmark::DoNotOptimize(sim.run());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ActionSmallCapture)->Arg(4096);

void BM_ActionLargeCapture(benchmark::State& state) {
  // Deliberately larger than the inline buffer: every schedule pays one
  // heap allocation, the pre-SBO cost for every event. The gap between
  // this and BM_ActionSmallCapture is what the inline path saves.
  const auto batch = static_cast<std::size_t>(state.range(0));
  struct Large {
    unsigned char bytes[sim::Action::kInlineCapacity + 16];
  };
  static_assert(!sim::Action::fits_inline<Large>());
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      Large payload{};
      payload.bytes[0] = static_cast<unsigned char>(i);
      sim.schedule_at(SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                      [payload, &sink] { sink += payload.bytes[0]; });
    }
    benchmark::DoNotOptimize(sim.run());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ActionLargeCapture)->Arg(4096);

void BM_PacketTransferPerMegabyte(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Topology topo(sim, 1);
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    net::LinkConfig link;
    link.rate = Bandwidth::mbps(1000);
    link.propagation_delay = 1_ms;
    topo.add_duplex_link(a, b, link);
    topo.compute_routes();
    tcp::TcpStack sa(topo, a);
    tcp::TcpStack sb(topo, b);
    const auto r = exp::run_raw_transfer(
        sim, sa, sb, mib(1), tcp::TcpOptions{}.with_buffers(mib(1)));
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mib(1)));
}
BENCHMARK(BM_PacketTransferPerMegabyte);

}  // namespace

int main(int argc, char** argv) {
  const auto opts = lsl::bench::parse_options(argc, argv);
  lsl::bench::JsonRecords records("micro_simkernel");
  lsl::bench::RecordingReporter reporter(records);
  lsl::bench::run_micro_benchmarks(argc, argv, reporter);
  // Machine-independent ratios for the perf regression gate: each pairs
  // two benches from the same run, so host speed cancels out.
  for (const std::string size : {"1024", "65536"}) {
    // Half the events cancelled should cost about the same as draining
    // them all; a blowup here means dead heap entries got expensive.
    const double plain = reporter.seconds("BM_ScheduleAndRunEvents/" + size);
    const double heavy = reporter.seconds("BM_CancelHeavyRun/" + size);
    if (plain > 0.0 && heavy > 0.0) {
      records.add("cancel_heavy_vs_schedule_ratio_" + size, heavy / plain);
    }
  }
  // Timer churn against a populated heap vs an empty one: the
  // generation-counted kernel keeps this near 1.
  const double churn = reporter.seconds("BM_TimerChurn");
  for (const std::string pending : {"1024", "16384"}) {
    const double loaded =
        reporter.seconds("BM_TimerChurnPendingCancels/" + pending);
    if (churn > 0.0 && loaded > 0.0) {
      records.add("timer_churn_pending_vs_empty_ratio_" + pending,
                  loaded / churn);
    }
  }
  // What the inline-capture path saves over the always-allocate path.
  const double small = reporter.seconds("BM_ActionSmallCapture/4096");
  const double large = reporter.seconds("BM_ActionLargeCapture/4096");
  if (small > 0.0 && large > 0.0) {
    records.add("action_inline_vs_alloc_speedup", large / small);
  }
  return records.write(opts.json_path) ? 0 : 1;
}
