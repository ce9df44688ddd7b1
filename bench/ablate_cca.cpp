// Ablation: congestion-control algorithm x depot path splitting x link era.
//
// The paper's logistical effect rests on TCP throughput scaling inversely
// with RTT -- a property of Reno-era AIMD. This sweep asks how the effect
// fares under the modern congestion-control zoo:
//
//   * Reno/NewReno: rate ~ 1/(RTT sqrt(p)); splitting a path over n depots
//     divides both RTT and per-hop loss, so relays gain ~n^1.5.
//   * CUBIC (RFC 8312): rate ~ 1/(RTT^(1/4) p^(3/4)); far less
//     RTT-sensitive, so depots gain only ~n -- the crossover where network
//     logistics stops paying for RTT reduction and starts paying only for
//     loss isolation.
//   * BBR: loss-agnostic; throughput pins at min(window/RTT, bottleneck),
//     so depots pay off exactly when transfers are buffer-limited.
//
// Grid: {reno, newreno, cubic, bbr} x {direct, 1 depot, 2 depots} x
// {2004-era OC-3, lossy 10 Gbit/s long-haul, clean 100 Gbit/s metro}.
// End-to-end loss is held constant across depot splits (per-hop loss
// 1 - (1-p)^(1/hops)) so the sweep isolates the RTT-splitting effect.
//
// Emits (--json): goodput_mbps_<preset>_<cca>_<path>, depot speedups
// (speedup_<preset>_<cca>_{1depot,2depot} -- gated by check_perf_gate.py
// and the flow-vs-packet pair check), and per-CCA model agreement
// (fidelity_agreement_<preset>_<cca> = measured direct / flow::steady_rate).
// Exits nonzero if CUBIC fails to beat Reno on the lossy high-BDP path --
// the acceptance anchor for the CCA zoo.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/harness.hpp"
#include "exp/parallel.hpp"
#include "flow/tcp_model.hpp"
#include "util/table.hpp"

namespace {

using namespace lsl;
using namespace lsl::time_literals;

struct Preset {
  const char* name;
  double rate_mbps;
  double one_way_ms;  ///< direct-path propagation, split across depot hops
  std::uint64_t queue_bytes;
  double loss;  ///< end-to-end, preserved across depot splits
  std::uint64_t buffer_bytes;
  std::uint64_t transfer_bytes;
};

// Matches the scenario-layer link presets (exp/scenario.cpp): the paper's
// OC-3 era, a lossy intercontinental 10 Gbit/s path past CUBIC's crossover
// RTT, and a clean buffer-limited 100 Gbit/s metro hop.
const Preset kPresets[] = {
    {"2004", 155.0, 23.0, mib(8), 5e-4, 64 * kKiB, mib(16)},
    {"10g", 10000.0, 80.0, mib(32), 1e-4, mib(32), mib(2048)},
    {"100g", 100000.0, 1.0, mib(32), 1e-6, mib(4), mib(256)},
};

const flow::Cca kCcas[] = {flow::Cca::kReno, flow::Cca::kNewReno,
                           flow::Cca::kCubic, flow::Cca::kBbr};

const char* kPathNames[] = {"direct", "1depot", "2depot"};

constexpr std::size_t kPathConfigs = 3;  ///< direct, 1 depot, 2 depots

/// One measured grid point (all fields deterministic per trial index).
struct Measurement {
  double goodput_mbps = 0.0;
  bool completed = false;
};

Measurement run_case(const Preset& preset, flow::Cca cca, std::size_t depots,
                     exp::Fidelity fidelity, std::uint64_t bytes,
                     std::uint64_t seed) {
  exp::SimHarness harness(seed, fidelity);
  const std::size_t hops = depots + 1;
  // Hold end-to-end loss fixed while splitting RTT across hops.
  const double hop_loss = 1.0 - std::pow(1.0 - preset.loss, 1.0 / hops);
  net::LinkConfig link;
  link.rate = Bandwidth::mbps(preset.rate_mbps);
  link.propagation_delay =
      SimTime::from_seconds(preset.one_way_ms * 1e-3 / hops);
  link.queue_capacity_bytes = preset.queue_bytes;
  link.loss_rate = hop_loss;

  std::vector<net::NodeId> nodes;
  nodes.push_back(harness.add_host("src"));
  for (std::size_t d = 0; d < depots; ++d) {
    nodes.push_back(harness.add_host("d" + std::to_string(d)));
  }
  nodes.push_back(harness.add_host("dst"));
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    harness.add_link(nodes[i], nodes[i + 1], link);
  }

  session::DepotConfig depot;
  depot.tcp = tcp::TcpOptions{}.with_buffers(preset.buffer_bytes)
                  .with_cca(cca);
  depot.user_buffer_bytes = 2 * preset.buffer_bytes;
  harness.deploy(depot);

  session::TransferSpec spec;
  spec.dst = nodes.back();
  for (std::size_t d = 0; d < depots; ++d) {
    spec.via.push_back(nodes[d + 1]);
  }
  spec.payload_bytes = bytes;
  spec.tcp = tcp::TcpOptions{}.with_buffers(preset.buffer_bytes)
                 .with_cca(cca);

  const auto outcome =
      harness.run_transfer(nodes.front(), spec, SimTime::seconds(7200));
  Measurement m;
  m.completed = outcome.completed;
  m.goodput_mbps = outcome.goodput.megabits_per_second();
  return m;
}

/// Analytic direct-path rate for the fidelity_agreement_* records.
double analytic_direct_mbps(const Preset& preset, flow::Cca cca) {
  flow::ConnectionParams params;
  params.rtt = SimTime::from_seconds(2.0 * preset.one_way_ms * 1e-3);
  params.bottleneck = Bandwidth::mbps(preset.rate_mbps);
  params.window_bytes = preset.buffer_bytes;
  params.loss_rate = preset.loss;
  params.cca = cca;
  return flow::steady_rate(params).megabits_per_second();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Ablation -- congestion-control zoo vs depot path splitting",
      "Reno-era AIMD gains ~n^1.5 from n-way RTT splitting; CUBIC gains ~n; "
      "BBR gains exactly the buffer-limit relief. The logistical effect "
      "survives, but its mechanism shifts from loss recovery to buffering.");
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  // --cca=<name> restricts the grid to one algorithm (CI determinism runs)
  // and --preset=<name> to one link era (CI pairs flow-vs-packet speedups
  // on the window-limited 2004 preset, where both engines converge).
  const char* only_cca = nullptr;
  const char* only_preset = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cca=", 6) == 0) {
      only_cca = argv[i] + 6;
      flow::Cca parsed;
      if (!flow::parse_cca(only_cca, parsed)) {
        std::fprintf(stderr, "ablate_cca: unknown cca '%s'\n", only_cca);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--preset=", 9) == 0) {
      only_preset = argv[i] + 9;
      bool known = false;
      for (const Preset& preset : kPresets) {
        known = known || std::strcmp(preset.name, only_preset) == 0;
      }
      if (!known) {
        std::fprintf(stderr, "ablate_cca: unknown preset '%s'\n", only_preset);
        return 2;
      }
    }
  }
  const exp::Fidelity fidelity =
      opts.fidelity == testbed::SweepFidelity::kFlow ? exp::Fidelity::kFlow
                                                     : exp::Fidelity::kPacket;
  if (opts.fidelity == testbed::SweepFidelity::kAnalytic) {
    std::printf("(analytic fidelity not meaningful here; using packet)\n");
  }

  struct Case {
    std::size_t preset;
    std::size_t cca;
    std::size_t path;  ///< depot count = path
  };
  std::vector<Case> grid;
  for (std::size_t p = 0; p < std::size(kPresets); ++p) {
    if (only_preset != nullptr &&
        std::strcmp(kPresets[p].name, only_preset) != 0) {
      continue;
    }
    for (std::size_t c = 0; c < std::size(kCcas); ++c) {
      if (only_cca != nullptr &&
          std::strcmp(flow::to_string(kCcas[c]), only_cca) != 0) {
        continue;
      }
      for (std::size_t d = 0; d < kPathConfigs; ++d) {
        grid.push_back(Case{p, c, d});
      }
    }
  }

  exp::TrialOptions trial_options;
  trial_options.jobs = opts.jobs;
  const std::vector<Measurement> results = exp::map_trials<Measurement>(
      grid.size(), trial_options, [&](std::size_t i) {
        const Case& c = grid[i];
        const Preset& preset = kPresets[c.preset];
        const std::uint64_t bytes = static_cast<std::uint64_t>(
            static_cast<double>(preset.transfer_bytes) *
            bench::scale_factor());
        // Seeded by grid coordinates, not vector position, so --cca
        // filtering replays the identical simulations.
        const std::uint64_t seed =
            0xCCA0 + 100 * c.preset + 10 * c.cca + c.path;
        return run_case(preset, kCcas[c.cca], c.path, fidelity,
                        std::max<std::uint64_t>(bytes, mib(1)), seed);
      });

  bench::JsonRecords records("ablate_cca");
  Table table({"preset", "cca", "path", "goodput Mbit/s", "speedup"});
  // goodput[preset][cca][path], NaN when the case was filtered out.
  double goodput[std::size(kPresets)][std::size(kCcas)][kPathConfigs];
  for (auto& by_cca : goodput) {
    for (auto& by_path : by_cca) {
      for (double& g : by_path) {
        g = std::nan("");
      }
    }
  }
  bool all_completed = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Case& c = grid[i];
    goodput[c.preset][c.cca][c.path] = results[i].goodput_mbps;
    all_completed = all_completed && results[i].completed;
  }

  for (std::size_t p = 0; p < std::size(kPresets); ++p) {
    for (std::size_t c = 0; c < std::size(kCcas); ++c) {
      if (std::isnan(goodput[p][c][0])) {
        continue;
      }
      const std::string tag = std::string(kPresets[p].name) + "_" +
                              flow::to_string(kCcas[c]);
      const double direct = goodput[p][c][0];
      for (std::size_t d = 0; d < kPathConfigs; ++d) {
        const double g = goodput[p][c][d];
        records.add("goodput_mbps_" + tag + "_" + kPathNames[d], g);
        const double speedup = direct > 0.0 ? g / direct : 0.0;
        if (d > 0) {
          records.add("speedup_" + tag + "_" + kPathNames[d], speedup);
        }
        table.add_row({kPresets[p].name, flow::to_string(kCcas[c]),
                       kPathNames[d], Table::num(g, 1),
                       d == 0 ? "1.00" : Table::num(speedup, 2)});
      }
      const double analytic = analytic_direct_mbps(kPresets[p], kCcas[c]);
      if (analytic > 0.0) {
        records.add("fidelity_agreement_" + tag, direct / analytic);
      }
    }
  }
  table.print(std::cout);

  if (!records.write(opts.json_path)) {
    return 1;
  }
  if (!all_completed) {
    std::fprintf(stderr, "ablate_cca: a transfer missed its deadline\n");
    return 1;
  }

  // Acceptance anchor: on the lossy high-BDP path, CUBIC's response
  // function must beat Reno's Mathis rate in simulation, not just in the
  // closed form.
  const double reno_10g = goodput[1][0][0];
  const double cubic_10g = goodput[1][2][0];
  if (!std::isnan(reno_10g) && !std::isnan(cubic_10g)) {
    std::printf("\n10g direct: cubic %.1f vs reno %.1f Mbit/s (%.2fx)\n",
                cubic_10g, reno_10g,
                reno_10g > 0.0 ? cubic_10g / reno_10g : 0.0);
    records.add("cubic_over_reno_10g",
                reno_10g > 0.0 ? cubic_10g / reno_10g : 0.0);
    if (cubic_10g <= reno_10g) {
      std::fprintf(stderr,
                   "ablate_cca: CUBIC (%.1f) did not beat Reno (%.1f) on "
                   "the lossy high-BDP path\n",
                   cubic_10g, reno_10g);
      return 1;
    }
  }
  // Re-write with the ratio record included (cheap; path may be empty).
  if (!records.write(opts.json_path)) {
    return 1;
  }
  return 0;
}
