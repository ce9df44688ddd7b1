#include "sched/minimax.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace lsl::sched {

namespace {

std::vector<std::size_t> extract_path(std::size_t start,
                                      std::span<const std::int64_t> parent,
                                      std::size_t dst) {
  if (dst >= parent.size() || parent[dst] < 0) {
    return {};
  }
  std::vector<std::size_t> reversed;
  std::size_t cursor = dst;
  while (true) {
    reversed.push_back(cursor);
    if (cursor == start) {
      break;
    }
    const std::int64_t p = parent[cursor];
    if (p < 0 || reversed.size() > parent.size()) {
      return {};  // broken or cyclic tree: treat as unreachable
    }
    cursor = static_cast<std::size_t>(p);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

}  // namespace

std::vector<std::size_t> MmpTree::path_to(std::size_t dst) const {
  return extract_path(start, parent, dst);
}

std::vector<std::size_t> SpTree::path_to(std::size_t dst) const {
  return extract_path(start, parent, dst);
}

MmpTree build_mmp_tree(const CostMatrix& matrix, std::size_t start,
                       const MmpOptions& options) {
  const std::size_t n = matrix.size();
  LSL_ASSERT(start < n);
  LSL_ASSERT(options.node_costs.empty() || options.node_costs.size() == n);
  LSL_ASSERT(options.excluded.empty() || options.excluded.size() == n);
  LSL_ASSERT_MSG(options.epsilon >= 0.0, "negative epsilon");
  LSL_ASSERT_MSG(options.excluded.empty() || options.excluded[start] == 0,
                 "start node excluded");

  MmpTree tree;
  tree.start = start;
  tree.parent.assign(n, -1);
  tree.cost.assign(n, kInfiniteCost);
  tree.cost[start] = 0.0;
  tree.parent[start] = static_cast<std::int64_t>(start);

  // The fringe: every node not yet in the tree, packed in ascending index
  // order with its tentative cost and parent alongside. Masked-out nodes
  // never enter it, so they never relax and their incoming edges are never
  // read: the result matches a build over a matrix with those nodes
  // exclude_node()ed.
  std::vector<std::uint32_t> fringe;
  fringe.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (v != start && (options.excluded.empty() || options.excluded[v] == 0)) {
      fringe.push_back(static_cast<std::uint32_t>(v));
    }
  }
  std::vector<double> fringe_cost(fringe.size(), kInfiniteCost);
  std::vector<std::uint32_t> fringe_parent(fringe.size(), 0);
  const std::span<const double> node_costs = options.node_costs;
  const double eps_factor = 1.0 + options.epsilon;

  // Appendix A: repeatedly move the cheapest fringe node into the tree and
  // relax its outgoing edges with the epsilon-damped comparison. Relaxation
  // and next-node selection are fused into one pass over the fringe: each
  // node's relaxation depends only on the node just inserted, so its
  // post-relax cost is final for the round when the pass reaches it. The
  // pass runs in index order and only a strictly lower cost takes over, so
  // ties go to the lowest index. An absent edge needs no test: with an
  // infinite edge both comparisons below are false.
  std::size_t new_node = start;
  // The newly added node becomes an intermediate hop for anything routed
  // through it; with the host-throughput extension, traversing it costs
  // its node weight as well (the start node forwards nothing).
  double through_cost = 0.0;
  std::uint64_t collapses = 0;
  while (!fringe.empty()) {
    const double* row = matrix.row(new_node);
    const std::uint32_t* nodes = fringe.data();
    double* costs = fringe_cost.data();
    std::uint32_t* parents = fringe_parent.data();
    const std::size_t live = fringe.size();
    double best = kInfiniteCost;
    std::size_t best_pos = live;
    for (std::size_t k = 0; k < live; ++k) {
      const double relax_cost = std::max(row[nodes[k]], through_cost);
      if (relax_cost * eps_factor < costs[k]) {
        parents[k] = static_cast<std::uint32_t>(new_node);
        costs[k] = relax_cost;
      } else {
        // Strictly better, but within the epsilon equivalence band: the
        // damping deliberately keeps the incumbent. Counted without a
        // branch: on the pool's site-clique matrix 29% of all visits
        // collapse, in no order a branch predictor learns.
        collapses += relax_cost < costs[k] ? 1 : 0;
      }
      if (costs[k] < best) {
        best = costs[k];
        best_pos = k;
      }
    }
    if (best_pos == live) {
      break;  // remainder unreachable
    }
    new_node = fringe[best_pos];
    tree.cost[new_node] = best;
    tree.parent[new_node] = fringe_parent[best_pos];
    const auto pos = static_cast<std::ptrdiff_t>(best_pos);
    fringe.erase(fringe.begin() + pos);
    fringe_cost.erase(fringe_cost.begin() + pos);
    fringe_parent.erase(fringe_parent.begin() + pos);
    through_cost = best;
    if (!node_costs.empty()) {
      through_cost = std::max(through_cost, node_costs[new_node]);
    }
  }
  tree.epsilon_collapses = collapses;
  return tree;
}

double minimax_path_cost(const CostMatrix& matrix,
                         std::span<const std::size_t> path,
                         std::span<const double> node_costs) {
  if (path.size() < 2) {
    return 0.0;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    worst = std::max(worst, matrix.cost(path[i], path[i + 1]));
    if (!node_costs.empty() && i > 0) {
      worst = std::max(worst, node_costs[path[i]]);
    }
  }
  return worst;
}

SpTree build_shortest_path_tree(const CostMatrix& matrix, std::size_t start) {
  const std::size_t n = matrix.size();
  LSL_ASSERT(start < n);
  SpTree tree;
  tree.start = start;
  tree.parent.assign(n, -1);
  tree.cost.assign(n, kInfiniteCost);
  std::vector<bool> done(n, false);
  tree.cost[start] = 0.0;
  tree.parent[start] = static_cast<std::int64_t>(start);
  for (std::size_t round = 0; round < n; ++round) {
    double best = kInfiniteCost;
    std::size_t u = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!done[v] && tree.cost[v] < best) {
        best = tree.cost[v];
        u = v;
      }
    }
    if (u == n) {
      break;
    }
    done[u] = true;
    for (std::size_t v = 0; v < n; ++v) {
      if (done[v]) {
        continue;
      }
      const double edge = matrix.cost(u, v);
      if (edge == kInfiniteCost) {
        continue;
      }
      if (tree.cost[u] + edge < tree.cost[v]) {
        tree.cost[v] = tree.cost[u] + edge;
        tree.parent[v] = static_cast<std::int64_t>(u);
      }
    }
  }
  return tree;
}

double minimax_cost_oracle(const CostMatrix& matrix, std::size_t s,
                           std::size_t t) {
  const std::size_t n = matrix.size();
  LSL_ASSERT(s < n && t < n);
  if (s == t) {
    return 0.0;
  }
  // Candidate thresholds: every finite edge cost.
  std::vector<double> thresholds;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double c = matrix.cost(i, j);
      if (i != j && c != kInfiniteCost) {
        thresholds.push_back(c);
      }
    }
  }
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());

  const auto reachable = [&](double limit) {
    std::vector<bool> seen(n, false);
    std::queue<std::size_t> frontier;
    seen[s] = true;
    frontier.push(s);
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      if (u == t) {
        return true;
      }
      for (std::size_t v = 0; v < n; ++v) {
        if (!seen[v] && matrix.cost(u, v) <= limit) {
          seen[v] = true;
          frontier.push(v);
        }
      }
    }
    return false;
  };

  // Binary search for the smallest feasible threshold.
  std::size_t lo = 0;
  std::size_t hi = thresholds.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (reachable(thresholds[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo == thresholds.size() ? kInfiniteCost : thresholds[lo];
}

}  // namespace lsl::sched
