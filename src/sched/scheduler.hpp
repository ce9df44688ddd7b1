// The LSL scheduler: turns a (noisy, forecast-derived) performance matrix
// into logistical forwarding decisions.
//
// For each source it builds an epsilon-damped MMP tree (paper section 4) and
// walks it per destination. A decision "uses depots" when the chosen path
// has intermediate nodes; such paths are handed to sources as loose source
// routes, or reduced to destination/next-hop route tables for hop-by-hop
// forwarding at depots (section 4.2).
//
// A Scheduler is immutable once constructed: fresh forecasts mean a fresh
// Scheduler (nws::Rescheduler builds one per tick whose forecasts moved).
// Every member is const and safe to call from any number of threads at
// once; each source's tree is built once, on first use, under its own
// std::once_flag.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "lsl/route_table.hpp"
#include "obs/metrics.hpp"
#include "sched/cost_matrix.hpp"
#include "sched/minimax.hpp"

namespace lsl::sched {

/// Process-wide scheduler instruments in the global metrics registry.
struct SchedMetrics {
  explicit SchedMetrics(obs::Registry& reg)
      : trees_built(&reg.counter("sched.mmp.trees_built")),
        epsilon_collapses(&reg.counter("sched.mmp.epsilon_collapses")),
        route_decisions(&reg.counter("sched.mmp.route_decisions")),
        relays_chosen(&reg.counter("sched.mmp.relays_chosen")),
        reroutes(&reg.counter("sched.mmp.reroutes")),
        tree_build_us(&reg.histogram("sched.mmp.tree_build_us",
                                     obs::exponential_buckets(1.0, 4.0, 10))) {
  }

  obs::Counter* trees_built;
  obs::Counter* epsilon_collapses;
  obs::Counter* route_decisions;
  obs::Counter* relays_chosen;
  obs::Counter* reroutes;         ///< route_avoiding
  obs::Histogram* tree_build_us;  ///< wall clock
};

struct SchedulerOptions {
  /// Edge-equivalence margin. The paper computed epsilon as 10% of the edge
  /// value and notes clusters coalesced around 10%.
  double epsilon = 0.10;
  /// Host-throughput extension: per-node traversal costs (empty = off).
  std::vector<double> host_costs;
};

class Scheduler {
 public:
  Scheduler(CostMatrix matrix, SchedulerOptions options = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  struct Decision {
    /// Full node path source..destination (empty when unreachable).
    std::vector<std::size_t> path;
    /// Minimax cost of the scheduled path and of the direct edge.
    double scheduled_cost = kInfiniteCost;
    double direct_cost = kInfiniteCost;

    [[nodiscard]] bool uses_depots() const { return path.size() > 2; }
    /// Intermediate hops, as a loose source route.
    [[nodiscard]] std::vector<net::NodeId> via() const;
  };

  [[nodiscard]] Decision route(std::size_t src, std::size_t dst) const;

  /// Route with the given nodes blacklisted (failed depots): builds one
  /// tree from `src` with the exclusions as a bitmask overlay, with no
  /// matrix copy and without touching the cached trees. Entries equal to
  /// `src` or `dst`, and out-of-range ids, are ignored; an empty list is
  /// route(src, dst). The decision degrades gracefully to the direct path,
  /// or to an empty path when `dst` is unreachable without the excluded
  /// nodes.
  [[nodiscard]] Decision route_avoiding(
      std::size_t src, std::size_t dst,
      const std::vector<std::size_t>& excluded) const;

  /// The full MMP tree rooted at `src` (cached; built on first use).
  [[nodiscard]] const MmpTree& tree_from(std::size_t src) const;

  /// Destination -> next-hop table for hop-by-hop forwarding at `node`,
  /// built from the node's own tree.
  [[nodiscard]] session::RouteTable route_table_for(std::size_t node) const;

  /// Fraction of ordered (src, dst) pairs routed through at least one depot
  /// (the paper reports 26% on its PlanetLab pool).
  [[nodiscard]] double fraction_scheduled() const;

  /// Build the trees for every source (or just `sources`; out-of-range ids
  /// are skipped) up front on `jobs` worker threads (0 = one per hardware
  /// thread). Each source's tree depends only on the matrix, so the result
  /// is identical for any job count; see docs/performance.md.
  void prebuild_trees(std::size_t jobs = 0,
                      std::span<const std::size_t> sources = {}) const;

  [[nodiscard]] const CostMatrix& matrix() const { return matrix_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  [[nodiscard]] MmpOptions mmp_options() const;

  CostMatrix matrix_;
  SchedulerOptions options_;
  /// Per-source tree cache, each slot written once under its once_flag.
  mutable std::vector<MmpTree> trees_;
  mutable std::unique_ptr<std::once_flag[]> tree_once_;
};

}  // namespace lsl::sched
