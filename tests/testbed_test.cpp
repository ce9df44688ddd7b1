#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "flow/path_model.hpp"
#include "nws/monitor.hpp"
#include "sched/scheduler.hpp"
#include "testbed/abilene_paths.hpp"
#include "testbed/grid.hpp"
#include "testbed/sweep.hpp"
#include "util/stats.hpp"

namespace lsl::testbed {
namespace {

using namespace lsl::time_literals;

TEST(SyntheticGridTest, PlanetlabPoolShape) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 42);
  // ~70 sites with 1-3 hosts each: the paper's pool had 142 machines.
  EXPECT_GE(grid.size(), 70u);
  EXPECT_LE(grid.size(), 210u);
  std::set<std::string> sites;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    sites.insert(grid.host(i).site);
  }
  EXPECT_EQ(sites.size(), 70u);
  EXPECT_TRUE(grid.core_hosts().empty());
}

TEST(SyntheticGridTest, DeterministicForSeed) {
  const auto a = SyntheticGrid::planetlab(PlanetLabConfig{}, 7);
  const auto b = SyntheticGrid::planetlab(PlanetLabConfig{}, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.host(i).name, b.host(i).name);
    EXPECT_DOUBLE_EQ(a.host(i).access.bits_per_second(),
                     b.host(i).access.bits_per_second());
  }
  EXPECT_EQ(a.rtt(0, a.size() - 1), b.rtt(0, b.size() - 1));
}

TEST(SyntheticGridTest, RttSymmetricAndBounded) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 3);
  for (std::size_t i = 0; i < grid.size(); i += 7) {
    for (std::size_t j = 0; j < grid.size(); j += 11) {
      if (i == j) {
        continue;
      }
      EXPECT_EQ(grid.rtt(i, j), grid.rtt(j, i));
      EXPECT_GE(grid.rtt(i, j), 1_ms);
      EXPECT_LE(grid.rtt(i, j), 250_ms);
    }
  }
}

TEST(SyntheticGridTest, SameSiteIsLanLike) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 11);
  // Find a site with two hosts.
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    if (grid.host(i).site == grid.host(i + 1).site) {
      EXPECT_EQ(grid.rtt(i, i + 1), 1_ms);
      EXPECT_GE(grid.base_path_bw(i, i + 1).megabits_per_second(), 500.0);
      return;
    }
  }
  GTEST_SKIP() << "no two-host site in this seed";
}

TEST(SyntheticGridTest, ProbeBwRespectsCapsAndWindow) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 13);
  for (std::size_t i = 0; i < grid.size(); i += 5) {
    for (std::size_t j = 1; j < grid.size(); j += 9) {
      if (i == j || grid.host(i).site == grid.host(j).site) {
        continue;
      }
      const double probe = grid.probe_bw(i, j).megabits_per_second();
      EXPECT_LE(probe,
                grid.host(i).host_cap.megabits_per_second() + 1e-9);
      EXPECT_LE(probe,
                grid.host(j).host_cap.megabits_per_second() + 1e-9);
      const double window_ceiling =
          static_cast<double>(
              std::min(grid.host(i).tcp_buffer, grid.host(j).tcp_buffer)) *
          8.0 / grid.rtt(i, j).to_seconds() / 1e6;
      EXPECT_LE(probe, window_ceiling + 1e-9);
    }
  }
}

TEST(SyntheticGridTest, AbileneCoreShape) {
  const auto grid = SyntheticGrid::abilene_core(5);
  EXPECT_EQ(grid.size(), 21u);  // 10 universities + 11 POPs
  EXPECT_EQ(grid.core_hosts().size(), 11u);
  for (const std::size_t core : grid.core_hosts()) {
    EXPECT_TRUE(grid.host(core).core);
    EXPECT_EQ(grid.host(core).tcp_buffer, 8 * kMiB);
  }
  EXPECT_EQ(grid.host(0).tcp_buffer, 64 * kKiB);
}

TEST(SyntheticGridTest, DirectParamsRateLimitKicksInPastThreshold) {
  // 15% of the default pool's hosts are rate-limited; one is enough.
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 17);
  std::size_t limited = 0;
  while (limited < grid.size() && !grid.host(limited).rate_limited) {
    ++limited;
  }
  ASSERT_LT(limited, grid.size());
  const std::size_t peer = limited == 0 ? grid.size() - 1 : 0;
  Rng trial(1);
  const auto small = grid.realize_direct(limited, peer, mib(1), trial);
  Rng trial2(1);
  const auto big = grid.realize_direct(limited, peer, mib(64), trial2);
  EXPECT_LE(big.bottleneck.megabits_per_second(),
            GridNoise::rate_limit.megabits_per_second() + 1e-9);
  EXPECT_GE(small.bottleneck.megabits_per_second(),
            big.bottleneck.megabits_per_second());
}

TEST(SyntheticGridTest, RelayParamsMatchPathStructure) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 23);
  Rng trial(9);
  const std::vector<std::size_t> path{0, 5, 10};
  const auto hops = grid.realize_relay_hops(path, mib(4), trial);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].rtt, grid.rtt(0, 5));
  EXPECT_EQ(hops[1].rtt, grid.rtt(5, 10));
}

TEST(SweepTest, ProducesPlausibleSpeedupDistribution) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 99);
  SweepConfig config;
  config.max_size_exp = 3;  // 1, 2, 4 MB: keep the unit test quick
  config.iterations = 3;
  config.max_cases = 60;
  const auto result = run_speedup_sweep(grid, config, 4242);

  EXPECT_GT(result.fraction_scheduled, 0.02);
  EXPECT_LT(result.fraction_scheduled, 0.9);
  EXPECT_GT(result.scheduled_cases, 10u);
  EXPECT_EQ(result.speedups_by_size.size(), 3u);

  const auto all = result.all_speedups();
  ASSERT_FALSE(all.empty());
  // The paper's central finding: gains on average, losses in a sizable
  // minority of cases.
  int wins = 0;
  int losses = 0;
  for (const double s : all) {
    EXPECT_GT(s, 0.01);
    EXPECT_LT(s, 50.0);
    (s > 1.0 ? wins : losses) += 1;
  }
  EXPECT_GT(wins, 0);
  EXPECT_GT(losses, 0);
}

TEST(SweepTest, DeterministicForSeed) {
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 55);
  SweepConfig config;
  config.max_size_exp = 2;
  config.iterations = 2;
  config.max_cases = 20;
  const auto a = run_speedup_sweep(grid, config, 77);
  const auto b = run_speedup_sweep(grid, config, 77);
  ASSERT_EQ(a.all_speedups().size(), b.all_speedups().size());
  EXPECT_EQ(a.all_speedups(), b.all_speedups());
}

TEST(SweepTest, AnalyticSweepMatchesParentBitForBit) {
  // Pinned from the discovery loop that copied every scheduled pair's path
  // before the shuffle and the max_cases cut; the cut keeps 60 of them.
  const auto grid = SyntheticGrid::planetlab(PlanetLabConfig{}, 2004);
  SweepConfig config;
  config.max_size_exp = 3;
  config.iterations = 2;
  config.max_cases = 60;
  const auto result = run_speedup_sweep(grid, config, 42);
  EXPECT_EQ(result.fraction_scheduled, 0x1.847a47a47a47ap-1);
  EXPECT_EQ(result.scheduled_cases, 60u);
  EXPECT_EQ(result.mean_path_hops, 0x1.cp+0);
  const std::map<std::uint64_t, double> expected_sums = {
      {mib(1), 0x1.c6d905bd8422cp+5},
      {mib(2), 0x1.f07885fce9196p+5},
      {mib(4), 0x1.ecf25eada103cp+5},
  };
  ASSERT_EQ(result.speedups_by_size.size(), expected_sums.size());
  for (const auto& [size, sum] : expected_sums) {
    const std::vector<double>& xs = result.speedups_by_size.at(size);
    EXPECT_EQ(xs.size(), 60u);
    EXPECT_EQ(std::accumulate(xs.begin(), xs.end(), 0.0), sum) << size;
  }
}

TEST(SweepTest, ExplicitSizesRespected) {
  const auto grid = SyntheticGrid::abilene_core(9);
  SweepConfig config;
  config.sizes = {mib(16), mib(128)};
  config.iterations = 2;
  config.max_cases = 20;
  // Endpoints: the universities only (hosts 0..9).
  for (std::size_t u = 0; u < 10; ++u) {
    config.endpoints.push_back(u);
  }
  const auto result = run_speedup_sweep(grid, config, 31);
  EXPECT_EQ(result.speedups_by_size.size(), 2u);
  EXPECT_TRUE(result.speedups_by_size.contains(mib(16)));
  EXPECT_TRUE(result.speedups_by_size.contains(mib(128)));
}

TEST(SweepTest, SimulatedSweepTwinsAreTheClosedFormOnItsOwnRealizations) {
  PlanetLabConfig pool;
  pool.sites = 14;
  const auto grid = SyntheticGrid::planetlab(pool, 2004);
  SweepConfig config;
  config.max_size_exp = 2;
  config.iterations = 2;
  config.max_cases = 4;
  config.monitor_epochs = 5;
  config.fidelity = SweepFidelity::kFlow;
  const SweepResult result = run_speedup_sweep(grid, config, 42);
  ASSERT_EQ(result.scheduled_cases, 4u);
  ASSERT_EQ(result.analytic_twins_by_size.size(), 2u);

  // Replay the sweep's monitor, scheduler, discovery and max_cases cut.
  Rng rng(42);
  nws::PerformanceMonitor monitor(grid.sites(), nws::NoiseModel{},
                                  rng.fork(1).next_u64());
  const std::vector<double> truth = monitor.truth_table(grid.truth());
  for (std::size_t epoch = 0; epoch < config.monitor_epochs; ++epoch) {
    monitor.observe_epoch(truth, /*jobs=*/1);
  }
  sched::SchedulerOptions options;
  options.epsilon = config.epsilon;
  const sched::Scheduler scheduler(monitor.build_matrix(), options);
  std::vector<std::vector<std::size_t>> paths;
  for (std::size_t src = 0; src < grid.size(); ++src) {
    for (std::size_t dst = 0; dst < grid.size(); ++dst) {
      if (src == dst || grid.host(src).site == grid.host(dst).site) {
        continue;
      }
      auto decision = scheduler.route(src, dst);
      if (decision.uses_depots()) {
        paths.push_back(std::move(decision.path));
      }
    }
  }
  rng.shuffle(paths);
  paths.resize(config.max_cases);

  // Each case's draws in the simulated order -- direct, relay hops, then
  // the simulation seed -- with the closed form evaluated on each.
  for (std::size_t c = 0; c < paths.size(); ++c) {
    const std::vector<std::size_t>& path = paths[c];
    Rng case_rng = rng.fork(Rng::hash(grid.host(path.front()).name) ^
                            Rng::hash(grid.host(path.back()).name));
    for (const auto& [size, twins] : result.analytic_twins_by_size) {
      ASSERT_EQ(twins.size(), paths.size());
      double direct_bw = 0.0;
      double sched_bw = 0.0;
      for (std::size_t it = 0; it < config.iterations; ++it) {
        const auto direct =
            grid.realize_direct(path.front(), path.back(), size, case_rng);
        const auto hops = grid.realize_relay_hops(path, size, case_rng);
        (void)case_rng.next_u64();
        const SimTime t_direct =
            flow::transfer_time(direct.connection_params(), size);
        std::vector<flow::ConnectionParams> hop_params;
        for (const PairRealization& hop : hops) {
          hop_params.push_back(hop.connection_params());
        }
        const SimTime t_sched = flow::relay_transfer_time({hop_params}, size);
        direct_bw += static_cast<double>(size) * 8.0 / t_direct.to_seconds();
        sched_bw += static_cast<double>(size) * 8.0 / t_sched.to_seconds();
      }
      EXPECT_EQ(twins[c], sched_bw / direct_bw) << "case " << c << " size "
                                                << size;
    }
  }

  // An analytic sweep measures the closed form itself and has no twins.
  config.fidelity = SweepFidelity::kAnalytic;
  EXPECT_TRUE(run_speedup_sweep(grid, config, 42).analytic_twins_by_size
                  .empty());
}

TEST(SweepTest, FidelityNamesRoundTrip) {
  for (const SweepFidelity fidelity :
       {SweepFidelity::kAnalytic, SweepFidelity::kFlow,
        SweepFidelity::kPacket}) {
    SweepFidelity parsed = SweepFidelity::kAnalytic;
    ASSERT_TRUE(parse_sweep_fidelity(to_string(fidelity), parsed));
    EXPECT_EQ(parsed, fidelity);
  }
  SweepFidelity untouched = SweepFidelity::kFlow;
  EXPECT_FALSE(parse_sweep_fidelity("flwo", untouched));
  EXPECT_FALSE(parse_sweep_fidelity("Flow", untouched));
  EXPECT_EQ(untouched, SweepFidelity::kFlow);
}

TEST(PathScenarioTest, RttsMatchPaperTable) {
  const auto uiuc = ucsb_uiuc_via_denver();
  EXPECT_EQ((uiuc.src_depot_delay * 2).to_milliseconds(), 46.0);
  EXPECT_EQ((uiuc.depot_dst_delay * 2).to_milliseconds(), 45.0);
  EXPECT_EQ((uiuc.direct_delay * 2).to_milliseconds(), 70.0);
  const auto uf = ucsb_uf_via_houston();
  EXPECT_EQ((uf.src_depot_delay * 2).to_milliseconds(), 68.0);
  EXPECT_EQ((uf.depot_dst_delay * 2).to_milliseconds(), 34.0);
  EXPECT_EQ((uf.direct_delay * 2).to_milliseconds(), 87.0);
}

TEST(PathTestbedTest, DirectAndRelayedTransfersComplete) {
  PathTestbed bed(ucsb_uf_via_houston(), 8);
  const auto direct = bed.run(/*via_depot=*/false, mib(2));
  EXPECT_TRUE(direct.completed);
  EXPECT_EQ(direct.bytes, mib(2));
  const auto relayed = bed.run(/*via_depot=*/true, mib(2));
  EXPECT_TRUE(relayed.completed);
  EXPECT_EQ(relayed.bytes, mib(2));
  EXPECT_EQ(bed.harness().depot(bed.depot()).stats().sessions_relayed, 1u);
}

TEST(PathTestbedTest, LslOutperformsDirectAtSteadyState) {
  // The headline claim on the UIUC path configuration, packet level.
  // Individual runs are noisy (stochastic loss placement), so compare the
  // averages of several seeds, exactly as the paper averages 10 runs.
  OnlineStats direct_bw;
  OnlineStats lsl_bw;
  for (std::uint64_t seed = 12; seed < 17; ++seed) {
    PathTestbed direct_bed(ucsb_uiuc_via_denver(), seed);
    const auto direct = direct_bed.run(false, mib(32));
    ASSERT_TRUE(direct.completed);
    direct_bw.add(direct.goodput.megabits_per_second());
    PathTestbed lsl_bed(ucsb_uiuc_via_denver(), seed);
    const auto lsl = lsl_bed.run(true, mib(32));
    ASSERT_TRUE(lsl.completed);
    lsl_bw.add(lsl.goodput.megabits_per_second());
  }
  EXPECT_GT(lsl_bw.mean(), direct_bw.mean());
}

TEST(PathTestbedTest, LosslessDepotTransferCostsOneEventPerPacketHop) {
  // The packet data plane's event budget: each link keeps one pending
  // kernel event for all its in-flight packets, and restarting the RTO on
  // every ACK schedules nothing. So a transfer costs one kernel event per
  // delivered packet-hop plus a handful of per-connection events, and the
  // heap holds one entry per busy link plus a few timers per connection.
  auto scenario = ucsb_uiuc_via_denver();
  scenario.leg1_loss = 0.0;
  scenario.leg2_loss = 0.0;
  scenario.direct_loss = 0.0;
  PathTestbed bed(scenario, 3);
  const auto outcome = bed.run(/*via_depot=*/true, mib(4));
  ASSERT_TRUE(outcome.completed);

  auto& topo = bed.harness().topology();
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const auto& stats = topo.link(i).stats();
    hops += stats.packets_sent - stats.packets_dropped_loss;
  }
  const auto profile = bed.harness().simulator().profile();
  EXPECT_GT(hops, 2 * mib(4) / 1500);  // two TCP legs carried the payload
  EXPECT_LE(profile.events_executed, hops + 32);
  constexpr std::uint64_t kConnections = 2;
  EXPECT_LE(profile.queue_high_water, topo.link_count() + 4 * kConnections);
  for (const auto& [category, count] : profile.category_counts) {
    EXPECT_NE(category, "net.link.tx");
  }
}

}  // namespace
}  // namespace lsl::testbed
