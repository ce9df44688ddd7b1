// Minimax Path (MMP) tree construction -- the paper's Appendix A algorithm.
//
// Pipelined store-and-forward throughput is dominated by the slowest hop, so
// the cost of a path is the maximum edge cost on it; the scheduler wants the
// path minimizing that maximum. The greedy Dijkstra-like tree build is
// optimal for this cost (and the epsilon edge-equivalence modification damps
// spurious relays caused by measurement noise: an edge only replaces the
// incumbent when relax_cost * (1 + epsilon) < cost[other]).
//
// A tree is always built from scratch over the matrix it is given. When the
// forecasts move, the periodic rescheduler builds a fresh Scheduler, as the
// paper re-runs its scheduler (section 4.2); no tree is ever patched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/cost_matrix.hpp"

namespace lsl::sched {

struct MmpTree {
  std::size_t start = 0;
  /// parent[v] is v's predecessor on the chosen path; parent[start] == start;
  /// -1 when unreachable.
  std::vector<std::int64_t> parent;
  /// Minimax cost of the chosen path from start to v.
  std::vector<double> cost;
  /// Relaxations suppressed by the epsilon damping: the edge was strictly
  /// better than the incumbent, but not by the required relative margin.
  /// Non-zero counts mean epsilon is actively filtering measurement noise.
  std::uint64_t epsilon_collapses = 0;

  /// Node sequence start..dst along the tree; empty when unreachable.
  [[nodiscard]] std::vector<std::size_t> path_to(std::size_t dst) const;
};

struct MmpOptions {
  /// Edge equivalence: relax only when better by this relative margin.
  double epsilon = 0.0;
  /// Optional per-node traversal costs (the paper's future-work extension:
  /// "the path through the host as another edge"). A relay path that
  /// traverses intermediate node k also pays node_costs[k] in the max.
  /// Empty = hosts are free.
  std::span<const double> node_costs = {};
  /// Exclusion overlay: when non-empty (size n), nodes with a non-zero flag
  /// never enter the tree and are never relaxed, without copying or
  /// mutating the matrix. The result is identical -- including the collapse
  /// count -- to a build over a matrix copy with those nodes
  /// exclude_node()ed. The start node must not be excluded.
  std::span<const std::uint8_t> excluded = {};
};

/// Build the tree of minimax paths from `start` to every node (Appendix A).
[[nodiscard]] MmpTree build_mmp_tree(const CostMatrix& matrix,
                                     std::size_t start,
                                     const MmpOptions& options = {});

/// Minimax cost of an explicit path (max over its edges and, when
/// node_costs is given, its intermediate nodes); infinite for paths with
/// missing edges.
[[nodiscard]] double minimax_path_cost(const CostMatrix& matrix,
                                       std::span<const std::size_t> path,
                                       std::span<const double> node_costs = {});

/// Classic Dijkstra additive-cost tree over the same matrix: the natural
/// baseline the paper contrasts with (sum-of-edges is wrong for pipelined
/// flows).
struct SpTree {
  std::size_t start = 0;
  std::vector<std::int64_t> parent;
  std::vector<double> cost;

  [[nodiscard]] std::vector<std::size_t> path_to(std::size_t dst) const;
};

[[nodiscard]] SpTree build_shortest_path_tree(const CostMatrix& matrix,
                                              std::size_t start);

/// Exhaustive oracle for tests: true minimax s->t cost via binary search
/// over edge thresholds + reachability. O(E log E); intended for small n.
[[nodiscard]] double minimax_cost_oracle(const CostMatrix& matrix,
                                         std::size_t s, std::size_t t);

}  // namespace lsl::sched
