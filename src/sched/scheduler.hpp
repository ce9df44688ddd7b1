// The LSL scheduler: turns a (noisy, forecast-derived) performance matrix
// into logistical forwarding decisions.
//
// For each source it builds an epsilon-damped MMP tree (paper section 4) and
// walks it per destination. A decision "uses depots" when the chosen path
// has intermediate nodes; such paths are handed to sources as loose source
// routes, or reduced to destination/next-hop route tables for hop-by-hop
// forwarding at depots (section 4.2).
//
// Concurrency contract: every const member is safe to call from any number
// of threads at once (the lazy tree cache is built under per-slot
// once-flags and refreshed under a mutex). The mutating topology updates
// (set_cost / exclude_node / apply_matrix / prebuild_trees) require
// exclusive access -- no concurrent readers.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "lsl/route_table.hpp"
#include "obs/metrics.hpp"
#include "sched/cost_matrix.hpp"
#include "sched/minimax.hpp"

namespace lsl {
class ThreadPool;
}

namespace lsl::sched {

/// Process-wide scheduler instruments in the global metrics registry.
struct SchedMetrics {
  obs::Counter* trees_built;       ///< sched.mmp.trees_built
  obs::Counter* tree_repairs;      ///< sched.mmp.tree_repairs (incremental)
  obs::Counter* repair_fallbacks;  ///< sched.mmp.repair_fallbacks
  obs::Counter* epsilon_collapses; ///< sched.mmp.epsilon_collapses
  obs::Counter* route_decisions;   ///< sched.mmp.route_decisions
  obs::Counter* relays_chosen;     ///< sched.mmp.relays_chosen
  obs::Counter* reroutes;          ///< sched.mmp.reroutes (blacklist repairs)
  obs::Histogram* tree_build_us;   ///< sched.mmp.tree_build_us (wall clock)

  /// nullptr while obs::metrics_enabled() is false.
  static SchedMetrics* get();
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

  /// Route with the given nodes blacklisted (failed depots). The exclusions
  /// are applied as a bitmask overlay on the source's cached tree -- no
  /// matrix copy -- and only the affected subtrees are re-settled, so a
  /// recovery reroute costs O(n * affected) instead of O(n^2) + an n x n
  /// allocation. The decision degrades gracefully to the direct path -- or
  /// to an empty path when the destination itself is excluded/unreachable.
  [[nodiscard]] Decision route_avoiding(
      std::size_t src, std::size_t dst,
      const std::vector<std::size_t>& excluded) const;

  /// The full MMP tree rooted at `src` (cached; built on first use and
  /// incrementally repaired after topology updates).
  [[nodiscard]] const MmpTree& tree_from(std::size_t src) const;

  /// Destination -> next-hop table for hop-by-hop forwarding at `node`,
  /// built from the node's own tree.
  [[nodiscard]] session::RouteTable route_table_for(std::size_t node) const;

  /// Fraction of ordered (src, dst) pairs routed through at least one depot
  /// (the paper reports 26% on its PlanetLab pool).
  [[nodiscard]] double fraction_scheduled() const;

  // ---- in-place topology updates (exclusive access required) ---------------

  /// Update one directed edge; cached trees repair lazily on next use.
  void set_cost(std::size_t i, std::size_t j, double cost);

  /// Blacklist `node`: every edge to or from it becomes infinite. Cached
  /// trees repair by re-settling just the node's subtrees (epsilon == 0)
  /// or rebuild on next use (epsilon > 0; see repair_mmp_tree).
  void exclude_node(std::size_t node);

  /// Diff-apply a freshly measured matrix of the same size: set_cost on
  /// every changed directed edge (the periodic rescheduler's drift path).
  /// Returns the number of changed edges.
  std::size_t apply_matrix(const CostMatrix& fresh);

  /// Build or refresh the trees for every source (or just `sources`) up
  /// front on `jobs` worker threads (0 = one per hardware thread). Each
  /// source's tree depends only on the shared matrix, so the result is
  /// identical for any job count; see docs/performance.md. After this, a
  /// shared `const Scheduler` serves route()/tree_from() from workers with
  /// no cache mutation at all.
  void prebuild_trees(std::size_t jobs = 0,
                      std::span<const std::size_t> sources = {});
  /// Same, on an existing pool.
  void prebuild_trees(ThreadPool& pool,
                      std::span<const std::size_t> sources = {});

  [[nodiscard]] const CostMatrix& matrix() const { return matrix_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  struct SlotOutcome {
    enum Kind : std::uint8_t { kUntouched, kBuilt, kRepaired, kRebuilt };
    Kind kind = kUntouched;
    std::uint64_t collapses = 0;  ///< tree's collapse count after the work
  };

  [[nodiscard]] MmpOptions mmp_options() const;
  /// Build (first use) or repair (stale) slot `src`. Not thread-safe per
  /// slot; callers serialize per-slot access. Touches no metrics.
  SlotOutcome refresh_slot(std::size_t src) const;
  /// Serial path: refresh + account metrics (tree_from's fast path).
  void refresh_slot_with_metrics(std::size_t src) const;
  void compact_change_log();

  CostMatrix matrix_;
  SchedulerOptions options_;
  mutable std::vector<std::optional<MmpTree>> trees_;
  /// First build of each slot (thread-safe lazy init through const).
  mutable std::unique_ptr<std::once_flag[]> tree_once_;
  /// Matrix generation each cached tree reflects; readers revalidate with
  /// acquire loads and repair stale slots under refresh_mutex_.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> tree_gen_;
  mutable std::mutex refresh_mutex_;
};

}  // namespace lsl::sched
