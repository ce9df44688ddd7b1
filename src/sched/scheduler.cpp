#include "sched/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <utility>

#include "util/assert.hpp"
#include "util/threads.hpp"

namespace lsl::sched {

Scheduler::Scheduler(CostMatrix matrix, SchedulerOptions options)
    : matrix_(std::move(matrix)),
      options_(std::move(options)),
      trees_(matrix_.size()),
      tree_once_(std::make_unique<std::once_flag[]>(matrix_.size())) {
  LSL_ASSERT(options_.host_costs.empty() ||
             options_.host_costs.size() == matrix_.size());
}

MmpOptions Scheduler::mmp_options() const {
  MmpOptions mmp;
  mmp.epsilon = options_.epsilon;
  mmp.node_costs = options_.host_costs;
  return mmp;
}

const MmpTree& Scheduler::tree_from(std::size_t src) const {
  LSL_ASSERT(src < trees_.size());
  // Thread-safe lazy build, so a shared const Scheduler can be routed from
  // trial workers.
  std::call_once(tree_once_[src], [&] {
    const auto t0 = std::chrono::steady_clock::now();
    trees_[src] = build_mmp_tree(matrix_, src, mmp_options());
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    if (SchedMetrics* m = obs::bundle<SchedMetrics>(); m != nullptr) {
      m->trees_built->inc();
      m->epsilon_collapses->inc(trees_[src].epsilon_collapses);
      m->tree_build_us->observe(
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  });
  return trees_[src];
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
  if (SchedMetrics* m = obs::bundle<SchedMetrics>(); m != nullptr) {
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
  // Exclusion overlay: a byte per node instead of an n x n matrix copy.
  const std::size_t n = matrix_.size();
  std::vector<std::uint8_t> mask(n, 0);
  for (const std::size_t node : excluded) {
    if (node < n && node != src && node != dst) {
      mask[node] = 1;
    }
  }
  MmpOptions mmp = mmp_options();
  mmp.excluded = mask;
  const MmpTree tree = build_mmp_tree(matrix_, src, mmp);
  Decision decision;
  decision.direct_cost = matrix_.cost(src, dst);
  decision.path = tree.path_to(dst);
  if (!decision.path.empty()) {
    decision.scheduled_cost = tree.cost[dst];
  }
  if (SchedMetrics* m = obs::bundle<SchedMetrics>(); m != nullptr) {
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

void Scheduler::prebuild_trees(std::size_t jobs,
                               std::span<const std::size_t> sources) const {
  const std::size_t n = trees_.size();
  std::vector<std::size_t> work;
  if (sources.empty()) {
    work.resize(n);
    std::iota(work.begin(), work.end(), std::size_t{0});
  } else {
    for (const std::size_t src : sources) {
      if (src < n) {
        work.push_back(src);
      }
    }
  }
  // Workers build disjoint slots and touch no shared instruments; metrics
  // are accounted afterwards in worklist order so the totals are identical
  // for any job count (the per-build wall-clock histogram is deliberately
  // skipped: it could never be deterministic across workers). A repeated
  // source is built by whichever item reaches its once_flag first.
  std::vector<std::uint8_t> built(work.size(), 0);
  std::atomic<std::size_t> cursor{0};
  run_on_threads(jobs == 0 ? default_jobs() : jobs, [&](std::size_t) {
    while (true) {
      const std::size_t w = cursor.fetch_add(1, std::memory_order_relaxed);
      if (w >= work.size()) {
        return;
      }
      const std::size_t src = work[w];
      std::call_once(tree_once_[src], [&] {
        trees_[src] = build_mmp_tree(matrix_, src, mmp_options());
        built[w] = 1;
      });
    }
  });
  if (SchedMetrics* m = obs::bundle<SchedMetrics>(); m != nullptr) {
    for (std::size_t w = 0; w < work.size(); ++w) {
      if (built[w] != 0) {
        m->trees_built->inc();
        m->epsilon_collapses->inc(trees_[work[w]].epsilon_collapses);
      }
    }
  }
}

}  // namespace lsl::sched
