// Scale sweep: flow-fidelity throughput on 10k- and 100k-host pools.
//
// The packet simulator prices every MSS segment; at pool scale that puts
// O(payload/MSS) events behind each of ~10^6 transfers and the sweep stops
// being interactive. The fluid backend prices a transfer at O(flow events)
// regardless of payload, which is what makes 10k-100k-host studies
// tractable. This bench measures that claim directly:
//
//   * per pool size: materialize random direct and one-depot relay cases
//     from the synthetic grid (no CostMatrix -- at 100k hosts the O(n^2)
//     matrix alone would be ~80 GB) and execute every transfer at flow
//     fidelity, recording transfers/s and simulator events/s;
//   * a paired subsample re-runs at packet fidelity on the identical
//     realizations, giving the flow-vs-packet rate ratio and a goodput
//     agreement check on the exact same networks.
//
// Gated records (results/BENCH_flow.json):
//   flow_vs_packet_transfers_per_second_speedup_<pool>  -- higher is
//       better; the headline >=100x engine speedup at bulk transfer sizes.
//       A ratio of wall-clock rates, so named *_per_second for the
//       determinism filter (scripts/strip_wall_clock.py).
//   flow_event_cost_ratio_<pool>  -- flow events-per-transfer over packet
//       events-per-transfer; lower is better.
// Artifact-only: flow_transfers_per_second_*, flow_events_per_second_*,
// fidelity_agreement_goodput_* (gated by check_fidelity_agreement.py).
//
// Usage: scale_sweep [--json <file>]   (LSL_BENCH_SCALE shrinks the pools
// and transfer counts for smoke runs; full scale runs ~1M flow transfers.)
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "testbed/grid.hpp"
#include "testbed/materialize.hpp"
#include "util/table.hpp"

namespace {

using namespace lsl;

struct Case {
  std::vector<std::size_t> path;  // 2 nodes = direct, 3 = one-depot relay
  std::vector<testbed::PairRealization> hops;
  std::uint64_t bytes = 0;
  std::uint64_t seed = 0;
};

struct RunStats {
  std::uint64_t transfers = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double goodput_sum_bps = 0.0;
  [[nodiscard]] double transfers_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(transfers) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double events_per_transfer() const {
    return transfers > 0 ? static_cast<double>(events) /
                               static_cast<double>(transfers)
                         : 0.0;
  }
};

RunStats execute(const testbed::SyntheticGrid& grid,
                 const std::vector<Case>& cases, exp::Fidelity fidelity) {
  RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& c : cases) {
    auto m = testbed::materialize_path(grid, c.path, c.hops, c.seed, fidelity);
    session::TransferSpec spec;
    spec.dst = m.nodes.back();
    for (std::size_t i = 1; i + 1 < m.nodes.size(); ++i) {
      spec.via.push_back(m.nodes[i]);
    }
    spec.payload_bytes = c.bytes;
    spec.tcp =
        tcp::TcpOptions{}.with_buffers(grid.host(c.path.front()).tcp_buffer);
    const auto outcome =
        m.harness->run_transfer(m.nodes.front(), spec, SimTime::seconds(86400));
    stats.events += m.harness->simulator().events_executed();
    if (outcome.completed && outcome.elapsed > SimTime::zero()) {
      ++stats.transfers;
      stats.goodput_sum_bps += static_cast<double>(c.bytes) * 8.0 /
                               outcome.elapsed.to_seconds();
    }
  }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

std::vector<Case> draw_cases(const testbed::SyntheticGrid& grid,
                             std::size_t count, Rng& rng) {
  std::vector<Case> cases;
  cases.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = rng.pick_index(grid.size());
    std::size_t dst = rng.pick_index(grid.size());
    while (dst == src) {
      dst = rng.pick_index(grid.size());
    }
    Case c;
    // Bulk sizes where the engine gap is the story (the paper's 16-64 MB
    // upper range): a 64 MB payload is ~46k MSS segments at packet
    // fidelity and a handful of flow events at fluid fidelity.
    c.bytes = mib(16) << rng.pick_index(3);  // 16, 32, or 64 MiB
    if (i % 2 == 0) {
      c.path = {src, dst};
      c.hops = {grid.realize_direct(src, dst, c.bytes, rng)};
    } else {
      std::size_t via = rng.pick_index(grid.size());
      while (via == src || via == dst) {
        via = rng.pick_index(grid.size());
      }
      c.path = {src, via, dst};
      c.hops = grid.realize_relay_hops(c.path, c.bytes, rng);
    }
    c.seed = rng.next_u64();
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsl;
  const auto opts = bench::parse_options(argc, argv);
  bench::banner(
      "Scale sweep -- flow-fidelity throughput on 10k/100k-host pools",
      "Claim: the fluid backend executes bulk transfers >=100x faster than "
      "the packet simulator, with goodput agreement on identical networks.");

  bench::JsonRecords records("scale_sweep");
  Table table({"pool", "flow transfers", "flow xfer/s", "flow events/s",
               "vs packet", "agreement"});

  struct Pool {
    std::size_t hosts;
    std::size_t transfers;
  };
  // ~1M flow transfers across both pools at full scale.
  const Pool pools[] = {{10000, bench::scaled(800000, 200)},
                        {100000, bench::scaled(200000, 50)}};
  for (const auto& pool : pools) {
    // Depot-class 1 MiB socket buffers rather than PlanetLab's pinned
    // 64 KB: the scale pools model modern bulk-transfer hosts, and the
    // fluid pump's quantum tracks the window, so 64 KB windows would
    // price flow mode in 64 KB control round-trips and understate the
    // engine gap the bench exists to measure.
    auto config = testbed::scaled_planetlab_config(pool.hosts);
    config.host_tcp_buffer = kMiB;
    const auto grid = testbed::SyntheticGrid::planetlab(config, 2004);
    Rng rng(4242 + pool.hosts);
    const auto cases = draw_cases(grid, pool.transfers, rng);

    const auto flow = execute(grid, cases, exp::Fidelity::kFlow);

    // Packet reference on a paired subsample of the identical realizations:
    // packet fidelity at these sizes is ~1000x the event count, so pricing
    // the full case list would dominate the bench it is meant to baseline.
    const std::size_t sample =
        std::min<std::size_t>(cases.size(), bench::scaled(64, 8));
    const std::vector<Case> subsample(cases.begin(),
                                      cases.begin() + sample);
    const auto packet_ref = execute(grid, subsample, exp::Fidelity::kPacket);
    const auto flow_ref = execute(grid, subsample, exp::Fidelity::kFlow);

    const double rate_speedup =
        packet_ref.transfers_per_second() > 0.0
            ? flow_ref.transfers_per_second() /
                  packet_ref.transfers_per_second()
            : 0.0;
    const double event_cost =
        packet_ref.events_per_transfer() > 0.0
            ? flow_ref.events_per_transfer() / packet_ref.events_per_transfer()
            : 0.0;
    const double agreement =
        packet_ref.goodput_sum_bps > 0.0
            ? flow_ref.goodput_sum_bps / packet_ref.goodput_sum_bps
            : 0.0;

    const std::string tag = std::to_string(pool.hosts);
    records.add("flow_transfers_" + tag,
                static_cast<double>(flow.transfers));
    records.add("flow_wall_seconds_" + tag, flow.wall_seconds);
    records.add("flow_transfers_per_second_" + tag,
                flow.transfers_per_second());
    records.add("flow_events_per_second_" + tag,
                flow.wall_seconds > 0.0
                    ? static_cast<double>(flow.events) / flow.wall_seconds
                    : 0.0);
    records.add("flow_vs_packet_transfers_per_second_speedup_" + tag,
                rate_speedup);
    records.add("flow_event_cost_ratio_" + tag, event_cost);
    records.add("fidelity_agreement_goodput_" + tag, agreement);

    table.add_row({tag + " hosts",
                   Table::num_int(static_cast<long long>(flow.transfers)),
                   Table::num(flow.transfers_per_second(), 1),
                   Table::num(flow.wall_seconds > 0.0
                                  ? static_cast<double>(flow.events) /
                                        flow.wall_seconds
                                  : 0.0,
                              0),
                   Table::num(rate_speedup, 1), Table::num(agreement, 3)});
    std::fprintf(stderr,
                 "pool %zu: %llu flow transfers in %.1fs; packet subsample "
                 "%zu in %.1fs\n",
                 pool.hosts,
                 static_cast<unsigned long long>(flow.transfers),
                 flow.wall_seconds, sample, packet_ref.wall_seconds);
  }

  table.print(std::cout);
  return records.write(opts.json_path) ? 0 : 1;
}
