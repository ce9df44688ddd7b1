#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sched/minimax.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace lsl::sched {
namespace {

CostMatrix random_symmetric(std::size_t n, Rng& rng) {
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double c = rng.uniform(1.0, 100.0);
      m.set_cost(i, j, c);
      m.set_cost(j, i, c);
    }
  }
  return m;
}

CostMatrix random_directed(std::size_t n, Rng& rng) {
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.set_cost(i, j, rng.uniform(1.0, 100.0));
      }
    }
  }
  return m;
}

CostMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return random_directed(n, rng);
}

void expect_trees_equal(const MmpTree& got, const MmpTree& want,
                        const char* what) {
  ASSERT_EQ(got.start, want.start) << what;
  ASSERT_EQ(got.cost, want.cost) << what;
  ASSERT_EQ(got.parent, want.parent) << what;
}

TEST(CostMatrixTest, Basics) {
  CostMatrix m(3);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.cost(1, 1), 0.0);
  EXPECT_EQ(m.cost(0, 1), kInfiniteCost);
  m.set_cost(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(m.cost(0, 1), 5.0);
  EXPECT_EQ(m.cost(1, 0), kInfiniteCost);  // directed
}

TEST(CostMatrixTest, BandwidthConversion) {
  CostMatrix m(2);
  m.set_bandwidth(0, 1, Bandwidth::mbps(50));
  EXPECT_DOUBLE_EQ(m.cost(0, 1), 1.0 / 50.0);
  EXPECT_NEAR(m.bandwidth(0, 1).megabits_per_second(), 50.0, 1e-9);
  m.set_bandwidth_symmetric(0, 1, Bandwidth::mbps(10));
  EXPECT_DOUBLE_EQ(m.cost(1, 0), 0.1);
}

TEST(CostMatrixTest, Labels) {
  CostMatrix m(2);
  m.set_label(0, "ash.ucsb.edu", "ucsb.edu");
  EXPECT_EQ(m.name(0), "ash.ucsb.edu");
  EXPECT_EQ(m.site(0), "ucsb.edu");
}

TEST(MmpTest, PicksRelayWhenDirectEdgeIsWorst) {
  // 0 -> 2 direct costs 10; 0 -> 1 -> 2 has max edge 6.
  CostMatrix m(3);
  m.set_cost(0, 2, 10.0);
  m.set_cost(0, 1, 6.0);
  m.set_cost(1, 2, 5.0);
  const auto tree = build_mmp_tree(m, 0);
  EXPECT_EQ(tree.path_to(2), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(tree.cost[2], 6.0);
}

TEST(MmpTest, PrefersDirectWhenBest) {
  CostMatrix m(3);
  m.set_cost(0, 2, 4.0);
  m.set_cost(0, 1, 6.0);
  m.set_cost(1, 2, 5.0);
  const auto tree = build_mmp_tree(m, 0);
  EXPECT_EQ(tree.path_to(2), (std::vector<std::size_t>{0, 2}));
}

TEST(MmpTest, UnreachableNodesHaveNoPath) {
  CostMatrix m(3);
  m.set_cost(0, 1, 1.0);
  const auto tree = build_mmp_tree(m, 0);
  EXPECT_TRUE(tree.path_to(2).empty());
  EXPECT_EQ(tree.cost[2], kInfiniteCost);
}

TEST(MmpTest, PaperEpsilonExample) {
  // Figure 7/8: direct edge ash->bell costs 5.1; the path through
  // opus.uiuc.edu has max edge 5.0. Strict MMP relays; with eps = 0.1 the
  // 2% difference is "the same" and the tree keeps the direct edge.
  CostMatrix m(3);
  m.set_label(0, "ash.ucsb.edu", "ucsb.edu");
  m.set_label(1, "opus.uiuc.edu", "uiuc.edu");
  m.set_label(2, "bell.uiuc.edu", "uiuc.edu");
  m.set_cost(0, 1, 5.0);
  m.set_cost(0, 2, 5.1);
  m.set_cost(1, 2, 1.0);
  const auto strict = build_mmp_tree(m, 0, {.epsilon = 0.0});
  EXPECT_EQ(strict.path_to(2), (std::vector<std::size_t>{0, 1, 2}));
  const auto damped = build_mmp_tree(m, 0, {.epsilon = 0.1});
  EXPECT_EQ(damped.path_to(2), (std::vector<std::size_t>{0, 2}));
}

TEST(MmpTest, EpsilonStillAllowsBigWins) {
  CostMatrix m(3);
  m.set_cost(0, 2, 10.0);
  m.set_cost(0, 1, 3.0);
  m.set_cost(1, 2, 3.0);
  const auto tree = build_mmp_tree(m, 0, {.epsilon = 0.1});
  EXPECT_EQ(tree.path_to(2), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(MmpTest, PathCostMatchesTreeCost) {
  Rng rng(404);
  const auto m = random_directed(12, rng);
  const auto tree = build_mmp_tree(m, 0);
  for (std::size_t v = 1; v < m.size(); ++v) {
    const auto path = tree.path_to(v);
    ASSERT_FALSE(path.empty());
    EXPECT_DOUBLE_EQ(minimax_path_cost(m, path), tree.cost[v]);
  }
}

class MmpOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmpOptimalityTest, MatchesOracleOnRandomSymmetricGraphs) {
  Rng rng(GetParam());
  const std::size_t n = 4 + rng.pick_index(12);
  const auto m = random_symmetric(n, rng);
  const auto tree = build_mmp_tree(m, 0);
  for (std::size_t t = 1; t < n; ++t) {
    EXPECT_DOUBLE_EQ(tree.cost[t], minimax_cost_oracle(m, 0, t))
        << "n=" << n << " t=" << t;
  }
}

TEST_P(MmpOptimalityTest, MatchesOracleOnRandomDirectedGraphs) {
  Rng rng(GetParam() ^ 0xD1CE);
  const std::size_t n = 4 + rng.pick_index(10);
  const auto m = random_directed(n, rng);
  const auto tree = build_mmp_tree(m, 0);
  for (std::size_t t = 1; t < n; ++t) {
    EXPECT_DOUBLE_EQ(tree.cost[t], minimax_cost_oracle(m, 0, t));
  }
}

TEST_P(MmpOptimalityTest, EpsilonTreeNeverBeatsOptimalAndStaysClose) {
  // With eps > 0 the tree may be suboptimal, but never by more than the
  // damping factor per relaxation... globally bounded by (1+eps)^n in
  // theory; in practice we assert the weaker invariant cost >= optimal.
  Rng rng(GetParam() ^ 0xBEEF);
  const std::size_t n = 4 + rng.pick_index(10);
  const auto m = random_symmetric(n, rng);
  const auto tree = build_mmp_tree(m, 0, {.epsilon = 0.1});
  for (std::size_t t = 1; t < n; ++t) {
    const double opt = minimax_cost_oracle(m, 0, t);
    const auto path = tree.path_to(t);
    ASSERT_FALSE(path.empty());
    EXPECT_GE(minimax_path_cost(m, path) + 1e-12, opt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmpOptimalityTest,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(MmpTest, NodeCostExtensionAvoidsSlowHosts) {
  // Path 0 -> 1 -> 2 has cheap edges but node 1 is a terrible forwarder.
  CostMatrix m(3);
  m.set_cost(0, 2, 8.0);
  m.set_cost(0, 1, 2.0);
  m.set_cost(1, 2, 2.0);
  const auto plain = build_mmp_tree(m, 0);
  EXPECT_EQ(plain.path_to(2), (std::vector<std::size_t>{0, 1, 2}));

  const std::vector<double> node_costs{0.0, 50.0, 0.0};
  const auto guarded =
      build_mmp_tree(m, 0, {.epsilon = 0.0, .node_costs = node_costs});
  EXPECT_EQ(guarded.path_to(2), (std::vector<std::size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(guarded.cost[2], 8.0);
}

TEST(MmpTest, NodeCostCountedInPathCost) {
  CostMatrix m(3);
  m.set_cost(0, 1, 2.0);
  m.set_cost(1, 2, 2.0);
  const std::vector<double> node_costs{0.0, 7.0, 0.0};
  const std::vector<std::size_t> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(minimax_path_cost(m, path, node_costs), 7.0);
}

TEST(SpTreeTest, AdditiveShortestPathsDifferFromMinimax) {
  // Sum-cost prefers one big hop (10) over 3+3+3+3; minimax prefers the
  // chain. This is exactly why Dijkstra is the wrong objective for
  // pipelined flows.
  CostMatrix m(5);
  m.set_cost(0, 4, 10.0);
  m.set_cost(0, 1, 3.0);
  m.set_cost(1, 2, 3.0);
  m.set_cost(2, 3, 3.0);
  m.set_cost(3, 4, 3.0);
  const auto sp = build_shortest_path_tree(m, 0);
  EXPECT_EQ(sp.path_to(4), (std::vector<std::size_t>{0, 4}));
  EXPECT_DOUBLE_EQ(sp.cost[4], 10.0);
  const auto mmp = build_mmp_tree(m, 0);
  EXPECT_EQ(mmp.path_to(4), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(mmp.cost[4], 3.0);
}

TEST(SchedulerTest, DecisionReportsCostsAndVia) {
  CostMatrix m(4);
  m.set_cost(0, 3, 10.0);
  m.set_cost(0, 1, 2.0);
  m.set_cost(1, 2, 2.0);
  m.set_cost(2, 3, 2.0);
  const Scheduler sched(std::move(m), {.epsilon = 0.0});
  const auto d = sched.route(0, 3);
  EXPECT_TRUE(d.uses_depots());
  EXPECT_EQ(d.via(), (std::vector<net::NodeId>{1, 2}));
  EXPECT_DOUBLE_EQ(d.scheduled_cost, 2.0);
  EXPECT_DOUBLE_EQ(d.direct_cost, 10.0);
}

TEST(SchedulerTest, DirectDecisionHasEmptyVia) {
  CostMatrix m(3);
  m.set_cost(0, 1, 1.0);
  m.set_cost(0, 2, 1.0);
  m.set_cost(1, 2, 1.0);
  const Scheduler sched(std::move(m));
  const auto d = sched.route(0, 2);
  EXPECT_FALSE(d.uses_depots());
  EXPECT_TRUE(d.via().empty());
}

TEST(SchedulerTest, RouteTableNextHopsMatchTreePaths) {
  Rng rng(999);
  const auto m = random_symmetric(10, rng);
  const Scheduler sched(CostMatrix(m), {.epsilon = 0.05});
  for (std::size_t node = 0; node < 10; ++node) {
    const auto table = sched.route_table_for(node);
    for (std::size_t dst = 0; dst < 10; ++dst) {
      if (dst == node) {
        continue;
      }
      const auto path = sched.tree_from(node).path_to(dst);
      ASSERT_GE(path.size(), 2u);
      const auto hop = table.next_hop(static_cast<net::NodeId>(dst));
      ASSERT_TRUE(hop.has_value());
      EXPECT_EQ(*hop, static_cast<net::NodeId>(path[1]));
    }
  }
}

TEST(SchedulerTest, HigherEpsilonSchedulesFewerRelays) {
  Rng rng(31337);
  const auto m = random_symmetric(24, rng);
  const Scheduler strict(CostMatrix(m), {.epsilon = 0.0});
  const Scheduler damped(CostMatrix(m), {.epsilon = 0.25});
  EXPECT_GE(strict.fraction_scheduled(), damped.fraction_scheduled());
}

TEST(SchedulerTest, FractionScheduledBounds) {
  Rng rng(7);
  const auto m = random_symmetric(16, rng);
  const Scheduler sched(CostMatrix(m), {.epsilon = 0.1});
  const double f = sched.fraction_scheduled();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

// The exclusion bitmask must behave exactly like building over a copied
// matrix with the nodes exclude_node()ed -- including the collapse count.
TEST(MaskedBuildTest, MaskEquivalentToPrunedCopy) {
  for (const std::size_t n : {16u, 142u}) {
    for (const double epsilon : {0.0, 0.1, 0.25}) {
      const CostMatrix matrix = random_matrix(n, 0xCAFE + n);
      Rng rng(99 * n);
      std::vector<std::uint8_t> mask(n, 0);
      std::vector<std::size_t> excluded;
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
        if (mask[v] == 0) {
          mask[v] = 1;
          excluded.push_back(v);
        }
      }
      MmpOptions options;
      options.epsilon = epsilon;
      options.excluded = mask;
      const MmpTree masked = build_mmp_tree(matrix, 0, options);

      CostMatrix pruned(matrix);
      for (const std::size_t v : excluded) {
        pruned.exclude_node(v);
      }
      const MmpTree copied =
          build_mmp_tree(pruned, 0, {.epsilon = epsilon});
      expect_trees_equal(masked, copied, "mask vs pruned copy");
      EXPECT_EQ(masked.epsilon_collapses, copied.epsilon_collapses);
    }
  }
}

// The Appendix A build as a full scan: every round visits all n nodes,
// skips those in the tree, relaxes the rest against the node just admitted
// and picks the cheapest, lowest index first. build_mmp_tree visits only
// the packed fringe; this is the reference it must match bit for bit.
MmpTree full_scan_mmp_tree(const CostMatrix& matrix, std::size_t start,
                           const MmpOptions& options) {
  const std::size_t n = matrix.size();
  MmpTree tree;
  tree.start = start;
  tree.parent.assign(n, -1);
  tree.cost.assign(n, kInfiniteCost);
  std::vector<std::uint8_t> in_tree(n, 0);
  if (!options.excluded.empty()) {
    for (std::size_t v = 0; v < n; ++v) {
      in_tree[v] = options.excluded[v] != 0 ? 1 : 0;
    }
  }
  const double eps_factor = 1.0 + options.epsilon;
  tree.cost[start] = 0.0;
  tree.parent[start] = static_cast<std::int64_t>(start);
  std::size_t new_node = start;
  while (true) {
    in_tree[new_node] = 1;
    double through_cost = tree.cost[new_node];
    if (!options.node_costs.empty() && new_node != start) {
      through_cost = std::max(through_cost, options.node_costs[new_node]);
    }
    const double* row = matrix.row(new_node);
    double best = kInfiniteCost;
    std::size_t best_node = n;
    for (std::size_t other = 0; other < n; ++other) {
      if (in_tree[other]) {
        continue;
      }
      const double edge = row[other];
      if (edge != kInfiniteCost) {
        const double relax_cost = std::max(edge, through_cost);
        if (relax_cost * eps_factor < tree.cost[other]) {
          tree.parent[other] = static_cast<std::int64_t>(new_node);
          tree.cost[other] = relax_cost;
        } else if (relax_cost < tree.cost[other]) {
          ++tree.epsilon_collapses;
        }
      }
      if (tree.cost[other] < best) {
        best = tree.cost[other];
        best_node = other;
      }
    }
    if (best_node == n) {
      return tree;
    }
    new_node = best_node;
  }
}

std::vector<std::uint64_t> cost_bits(const std::vector<double>& costs) {
  std::vector<std::uint64_t> out;
  for (const double c : costs) {
    out.push_back(std::bit_cast<std::uint64_t>(c));
  }
  return out;
}

/// Hosts grouped one to three per site, every host pair reading its sites'
/// cost, as PerformanceMonitor::build_matrix fills it: whole rows of
/// exactly equal costs. About 10% of site pairs have no edge.
CostMatrix site_clique_matrix(std::size_t n, Rng& rng) {
  std::vector<std::size_t> site_of(n);
  std::size_t sites = 0;
  for (std::size_t v = 0; v < n; ++sites) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t k = 0; k < count && v < n; ++k) {
      site_of[v++] = sites;
    }
  }
  std::vector<double> by_site(sites * sites);
  for (double& c : by_site) {
    c = rng.chance(0.1) ? kInfiniteCost : 1.0 / rng.uniform(1.0, 50.0);
  }
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      const double c = site_of[i] == site_of[j]
                           ? 1.0 / 1000.0
                           : by_site[site_of[i] * sites + site_of[j]];
      if (c != kInfiniteCost) {
        m.set_cost(i, j, c);
      }
    }
  }
  return m;
}

/// Directed integer costs 1..6 (ties everywhere), ~10% of edges absent.
CostMatrix integer_matrix(std::size_t n, Rng& rng) {
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && !rng.chance(0.1)) {
        m.set_cost(i, j, static_cast<double>(rng.uniform_int(1, 6)));
      }
    }
  }
  return m;
}

// Costs alone (MmpOptimalityTest) cannot see a changed tie-break: on
// matrices full of exactly equal costs, the packed-fringe build must pick
// the same parents, the same cost bits and the same collapse count as the
// full scan, for every epsilon, with and without node costs and a mask.
TEST(MmpTieBreakTest, PackedFringeMatchesFullScan) {
  Rng rng(0x7137);
  std::uint64_t collapses = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 8 + rng.pick_index(90);
    const CostMatrix matrix =
        round % 2 == 0 ? site_clique_matrix(n, rng) : integer_matrix(n, rng);
    const auto start = rng.pick_index(n);
    std::vector<double> node_costs(n);
    for (double& c : node_costs) {
      c = round % 2 == 0 ? 1.0 / rng.uniform(1.0, 50.0)
                         : static_cast<double>(rng.uniform_int(0, 6));
    }
    std::vector<std::uint8_t> mask(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      mask[v] = v != start && rng.chance(0.15) ? 1 : 0;
    }
    for (const double epsilon : {0.0, 0.1, 0.25}) {
      for (const bool with_node_costs : {false, true}) {
        for (const bool with_mask : {false, true}) {
          MmpOptions options;
          options.epsilon = epsilon;
          if (with_node_costs) {
            options.node_costs = node_costs;
          }
          if (with_mask) {
            options.excluded = mask;
          }
          const MmpTree got = build_mmp_tree(matrix, start, options);
          const MmpTree want = full_scan_mmp_tree(matrix, start, options);
          SCOPED_TRACE(::testing::Message()
                       << "round " << round << " n=" << n << " eps="
                       << epsilon << " node_costs=" << with_node_costs
                       << " mask=" << with_mask);
          ASSERT_EQ(got.parent, want.parent);
          ASSERT_EQ(cost_bits(got.cost), cost_bits(want.cost));
          ASSERT_EQ(got.epsilon_collapses, want.epsilon_collapses);
          collapses += want.epsilon_collapses;
        }
      }
    }
  }
  EXPECT_GT(collapses, 0u);  // the damping was exercised
}

// route_avoiding must give the same decision as the old implementation:
// copy the matrix, blacklist the failed depots, reroute from scratch.
// Both epsilon regimes run through the same masked from-scratch build.
class RouteAvoidingTest : public ::testing::TestWithParam<double> {};

TEST_P(RouteAvoidingTest, MatchesMatrixCopyBaseline) {
  const double epsilon = GetParam();
  const std::size_t n = 64;
  const CostMatrix matrix = random_matrix(n, 0xF00D);
  const Scheduler scheduler(CostMatrix(matrix), {.epsilon = epsilon});
  Rng rng(31337);
  for (int round = 0; round < 50; ++round) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (dst >= src) {
      ++dst;
    }
    std::vector<std::size_t> excluded;
    for (int k = 0; k < round % 4; ++k) {
      excluded.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    }
    const auto got = scheduler.route_avoiding(src, dst, excluded);

    CostMatrix pruned(matrix);
    for (const std::size_t v : excluded) {
      if (v != src && v != dst && v < n) {
        pruned.exclude_node(v);
      }
    }
    const Scheduler baseline(std::move(pruned), {.epsilon = epsilon});
    const auto want = baseline.route(src, dst);
    EXPECT_EQ(got.path, want.path) << "round " << round;
    EXPECT_EQ(got.scheduled_cost, want.scheduled_cost) << "round " << round;
    EXPECT_EQ(got.direct_cost, want.direct_cost) << "round " << round;
  }
}

// Excluding the source, the destination or an out-of-range id excludes
// nothing: the decision is the plain route's.
TEST_P(RouteAvoidingTest, IgnoresEndpointsAndOutOfRangeIds) {
  const double epsilon = GetParam();
  const std::size_t n = 64;
  const Scheduler scheduler(random_matrix(n, 0xF00D), {.epsilon = epsilon});
  for (std::size_t src = 0; src < n; src += 7) {
    const std::size_t dst = (src + 29) % n;
    const auto got = scheduler.route_avoiding(src, dst, {dst, src, n + 3});
    const auto want = scheduler.route(src, dst);
    EXPECT_EQ(got.path, want.path) << src << "->" << dst;
    EXPECT_EQ(got.scheduled_cost, want.scheduled_cost) << src << "->" << dst;
    EXPECT_EQ(got.direct_cost, want.direct_cost) << src << "->" << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, RouteAvoidingTest,
                         ::testing::Values(0.0, 0.1));

// Lazy serial use and an up-front parallel prebuild must serve identical
// trees and decisions for any job count.
TEST(PrebuildTest, PrebuildMatchesLazySerialTrees) {
  const std::size_t n = 96;
  const CostMatrix matrix = random_matrix(n, 0xABBA);
  const Scheduler lazy(CostMatrix(matrix), {.epsilon = 0.1});
  for (const std::size_t jobs : {1u, 4u}) {
    Scheduler pre(CostMatrix(matrix), {.epsilon = 0.1});
    pre.prebuild_trees(jobs);
    for (std::size_t s = 0; s < n; ++s) {
      expect_trees_equal(pre.tree_from(s), lazy.tree_from(s), "prebuild");
    }
    EXPECT_EQ(pre.fraction_scheduled(), lazy.fraction_scheduled());
  }
}

// A subset with repeated sources, then everything on a different job
// count: each slot is built once and matches a fresh scheduler's.
TEST(PrebuildTest, PrebuildSubsetWithDuplicatesThenAll) {
  const std::size_t n = 48;
  const CostMatrix matrix = random_matrix(n, 0x5EED);
  const Scheduler scheduler(CostMatrix(matrix), {.epsilon = 0.1});
  const std::vector<std::size_t> sources = {0, 7, 7, 13, 0};
  scheduler.prebuild_trees(2, sources);
  scheduler.prebuild_trees(3);
  const Scheduler fresh(CostMatrix(matrix), {.epsilon = 0.1});
  for (std::size_t s = 0; s < n; ++s) {
    expect_trees_equal(scheduler.tree_from(s), fresh.tree_from(s),
                       "subset then all");
  }
}

}  // namespace
}  // namespace lsl::sched
