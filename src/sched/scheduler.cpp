#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace lsl::sched {

SchedMetrics* SchedMetrics::get() {
  if (!obs::metrics_enabled()) {
    return nullptr;
  }
  // Thread-local, revalidated by registry uid (parallel trials swap the
  // thread's registry via obs::ScopedRegistry).
  thread_local SchedMetrics metrics;
  thread_local std::uint64_t bound_uid = 0;
  auto& reg = obs::Registry::global();
  if (bound_uid != reg.uid()) {
    bound_uid = reg.uid();
    metrics.trees_built = &reg.counter("sched.mmp.trees_built");
    metrics.tree_repairs = &reg.counter("sched.mmp.tree_repairs");
    metrics.repair_fallbacks = &reg.counter("sched.mmp.repair_fallbacks");
    metrics.epsilon_collapses = &reg.counter("sched.mmp.epsilon_collapses");
    metrics.route_decisions = &reg.counter("sched.mmp.route_decisions");
    metrics.relays_chosen = &reg.counter("sched.mmp.relays_chosen");
    metrics.reroutes = &reg.counter("sched.mmp.reroutes");
    metrics.tree_build_us = &reg.histogram(
        "sched.mmp.tree_build_us", obs::exponential_buckets(1.0, 4.0, 10));
  }
  return &metrics;
}

Scheduler::Scheduler(CostMatrix matrix, SchedulerOptions options)
    : matrix_(std::move(matrix)),
      options_(std::move(options)),
      trees_(matrix_.size()),
      tree_once_(std::make_unique<std::once_flag[]>(matrix_.size())),
      tree_gen_(std::make_unique<std::atomic<std::uint64_t>[]>(
          matrix_.size())) {
  LSL_ASSERT(options_.host_costs.empty() ||
             options_.host_costs.size() == matrix_.size());
  // The construction-time set_cost churn predates every cached tree;
  // nobody will repair across it.
  matrix_.compact_changes(matrix_.generation());
  for (std::size_t i = 0; i < matrix_.size(); ++i) {
    tree_gen_[i].store(matrix_.generation(), std::memory_order_relaxed);
  }
}

MmpOptions Scheduler::mmp_options() const {
  MmpOptions mmp;
  mmp.epsilon = options_.epsilon;
  mmp.node_costs = options_.host_costs;
  return mmp;
}

Scheduler::SlotOutcome Scheduler::refresh_slot(std::size_t src) const {
  const std::uint64_t gen = matrix_.generation();
  SlotOutcome out;
  if (!trees_[src].has_value()) {
    trees_[src] = build_mmp_tree(matrix_, src, mmp_options());
    out.kind = SlotOutcome::kBuilt;
  } else {
    const std::uint64_t have =
        tree_gen_[src].load(std::memory_order_relaxed);
    if (have == gen) {
      return out;  // kUntouched
    }
    if (matrix_.changes_tracked_since(have)) {
      const auto result = repair_mmp_tree(
          *trees_[src], matrix_, matrix_.changes_since(have), mmp_options());
      out.kind = result.repaired ? SlotOutcome::kRepaired
                                 : SlotOutcome::kRebuilt;
    } else {
      // The change log overflowed since this tree last caught up.
      trees_[src] = build_mmp_tree(matrix_, src, mmp_options());
      out.kind = SlotOutcome::kRebuilt;
    }
  }
  out.collapses = trees_[src]->epsilon_collapses;
  tree_gen_[src].store(gen, std::memory_order_release);
  return out;
}

void Scheduler::refresh_slot_with_metrics(std::size_t src) const {
  SchedMetrics* m = SchedMetrics::get();
  if (m == nullptr) {
    (void)refresh_slot(src);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const SlotOutcome out = refresh_slot(src);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  switch (out.kind) {
    case SlotOutcome::kUntouched:
      break;
    case SlotOutcome::kRebuilt:
      m->repair_fallbacks->inc();
      [[fallthrough]];
    case SlotOutcome::kBuilt:
      m->trees_built->inc();
      m->epsilon_collapses->inc(out.collapses);
      m->tree_build_us->observe(
          std::chrono::duration<double, std::micro>(elapsed).count());
      break;
    case SlotOutcome::kRepaired:
      m->tree_repairs->inc();
      break;
  }
}

const MmpTree& Scheduler::tree_from(std::size_t src) const {
  LSL_ASSERT(src < trees_.size());
  // First build: thread-safe lazy init, so a shared const Scheduler can be
  // routed from trial workers (the old optional-through-const cache raced).
  std::call_once(tree_once_[src], [&] { refresh_slot_with_metrics(src); });
  // Stale after a topology update: repair under the refresh lock. The
  // acquire load pairs with refresh_slot's release store, so a reader that
  // observes the current generation also observes the repaired tree.
  if (tree_gen_[src].load(std::memory_order_acquire) !=
      matrix_.generation()) {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    if (tree_gen_[src].load(std::memory_order_relaxed) !=
        matrix_.generation()) {
      refresh_slot_with_metrics(src);
    }
  }
  return *trees_[src];
}

std::vector<net::NodeId> Scheduler::Decision::via() const {
  std::vector<net::NodeId> hops;
  if (path.size() > 2) {
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      hops.push_back(static_cast<net::NodeId>(path[i]));
    }
  }
  return hops;
}

Scheduler::Decision Scheduler::route(std::size_t src, std::size_t dst) const {
  LSL_ASSERT(src < matrix_.size() && dst < matrix_.size());
  Decision decision;
  decision.direct_cost = matrix_.cost(src, dst);
  const MmpTree& tree = tree_from(src);
  decision.path = tree.path_to(dst);
  if (!decision.path.empty()) {
    decision.scheduled_cost = tree.cost[dst];
  }
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    m->route_decisions->inc();
    if (decision.uses_depots()) {
      m->relays_chosen->inc();
    }
  }
  return decision;
}

Scheduler::Decision Scheduler::route_avoiding(
    std::size_t src, std::size_t dst,
    const std::vector<std::size_t>& excluded) const {
  LSL_ASSERT(src < matrix_.size() && dst < matrix_.size());
  if (excluded.empty()) {
    return route(src, dst);
  }
  const std::size_t n = matrix_.size();
  // Exclusion overlay, reused across calls: no n x n matrix copy and no
  // steady-state allocation per reroute.
  thread_local std::vector<std::uint8_t> mask;
  thread_local std::vector<CostChange> changes;
  mask.assign(n, 0);
  changes.clear();
  for (const std::size_t node : excluded) {
    if (node < n && node != src && node != dst && mask[node] == 0) {
      mask[node] = 1;
      CostChange change;
      change.from = static_cast<std::uint32_t>(node);
      change.to = static_cast<std::uint32_t>(node);
      change.node_excluded = true;
      changes.push_back(change);
    }
  }
  const MmpTree* tree = &tree_from(src);
  MmpTree patched;
  if (!changes.empty()) {
    // Copy the cached tree (O(n)) and re-settle just the subtrees hanging
    // off the excluded nodes. At epsilon > 0 the repair falls back to a
    // masked from-scratch build (exclusions are not replay-exact there) --
    // still no second matrix, just an O(n^2) relaxation pass.
    patched = *tree;
    MmpOptions mmp = mmp_options();
    mmp.excluded = mask;
    (void)repair_mmp_tree(patched, matrix_, changes, mmp);
    tree = &patched;
  }
  Decision decision;
  decision.direct_cost = matrix_.cost(src, dst);
  decision.path = tree->path_to(dst);
  if (!decision.path.empty()) {
    decision.scheduled_cost = tree->cost[dst];
  }
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    m->route_decisions->inc();
    m->reroutes->inc();
    if (decision.uses_depots()) {
      m->relays_chosen->inc();
    }
  }
  return decision;
}

session::RouteTable Scheduler::route_table_for(std::size_t node) const {
  const MmpTree& tree = tree_from(node);
  session::RouteTable table;
  for (std::size_t dst = 0; dst < matrix_.size(); ++dst) {
    if (dst == node) {
      continue;
    }
    const auto path = tree.path_to(dst);
    if (path.size() >= 2) {
      table.set(static_cast<net::NodeId>(dst),
                static_cast<net::NodeId>(path[1]));
    }
  }
  return table;
}

double Scheduler::fraction_scheduled() const {
  const std::size_t n = matrix_.size();
  if (n < 2) {
    return 0.0;
  }
  std::size_t scheduled = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) {
        continue;
      }
      ++total;
      if (route(s, t).uses_depots()) {
        ++scheduled;
      }
    }
  }
  return static_cast<double>(scheduled) / static_cast<double>(total);
}

void Scheduler::compact_change_log() {
  std::uint64_t min_gen = matrix_.generation();
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    if (trees_[i].has_value()) {
      min_gen = std::min(min_gen,
                         tree_gen_[i].load(std::memory_order_relaxed));
    }
  }
  matrix_.compact_changes(min_gen);
}

void Scheduler::set_cost(std::size_t i, std::size_t j, double cost) {
  matrix_.set_cost(i, j, cost);
  compact_change_log();
}

void Scheduler::exclude_node(std::size_t node) {
  matrix_.exclude_node(node);
  compact_change_log();
}

std::size_t Scheduler::apply_matrix(const CostMatrix& fresh) {
  LSL_ASSERT_MSG(fresh.size() == matrix_.size(),
                 "apply_matrix needs a same-size matrix");
  const std::size_t n = matrix_.size();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* want = fresh.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      // inf == inf compares equal, so untouched absent edges are skipped.
      if (matrix_.row(i)[j] != want[j]) {
        matrix_.set_cost(i, j, want[j]);
        ++changed;
      }
    }
  }
  compact_change_log();
  return changed;
}

void Scheduler::prebuild_trees(ThreadPool& pool,
                               std::span<const std::size_t> sources) {
  const std::size_t n = trees_.size();
  // Deduplicated worklist: the first build is once-guarded, but a stale
  // slot's repair needs exactly one owner.
  std::vector<std::size_t> work;
  if (sources.empty()) {
    work.resize(n);
    std::iota(work.begin(), work.end(), std::size_t{0});
  } else {
    std::vector<std::uint8_t> seen(n, 0);
    work.reserve(sources.size());
    for (const std::size_t src : sources) {
      if (src < n && seen[src] == 0) {
        seen[src] = 1;
        work.push_back(src);
      }
    }
  }
  // Workers touch disjoint slots and no shared instruments; metrics are
  // accounted afterwards in slot order so the totals are identical for any
  // job count (the per-build wall-clock histogram is deliberately skipped:
  // it could never be deterministic across workers).
  std::vector<SlotOutcome> outcomes(work.size());
  std::atomic<std::size_t> cursor{0};
  pool.run_on_all([&](std::size_t) {
    while (true) {
      const std::size_t w = cursor.fetch_add(1, std::memory_order_relaxed);
      if (w >= work.size()) {
        return;
      }
      const std::size_t src = work[w];
      bool first_build = false;
      std::call_once(tree_once_[src], [&] {
        outcomes[w] = refresh_slot(src);
        first_build = true;
      });
      if (!first_build &&
          tree_gen_[src].load(std::memory_order_relaxed) !=
              matrix_.generation()) {
        outcomes[w] = refresh_slot(src);
      }
    }
  });
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    for (const SlotOutcome& out : outcomes) {
      switch (out.kind) {
        case SlotOutcome::kUntouched:
          break;
        case SlotOutcome::kRebuilt:
          m->repair_fallbacks->inc();
          [[fallthrough]];
        case SlotOutcome::kBuilt:
          m->trees_built->inc();
          m->epsilon_collapses->inc(out.collapses);
          break;
        case SlotOutcome::kRepaired:
          m->tree_repairs->inc();
          break;
      }
    }
  }
}

void Scheduler::prebuild_trees(std::size_t jobs,
                               std::span<const std::size_t> sources) {
  const std::size_t want = jobs == 0 ? ThreadPool::default_jobs() : jobs;
  ThreadPool pool(want - 1);
  prebuild_trees(pool, sources);
}

}  // namespace lsl::sched
