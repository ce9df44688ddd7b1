// Ablation: depot churn vs. session recovery (paper section 6 future work).
//
// The UCSB->UIUC depot path is the paper's throughput winner, but it adds
// a process that can die. This sweep crashes the Denver depot with an
// exponential MTBF/MTTR process while a 64MB transfer rides through it:
// with recovery the session blacklists the dead depot, fails over to the
// direct path, and resumes from the sink's committed offset; without it
// the first crash kills the transfer. "direct" is the churn-immune (but
// lossy, hence slower) baseline the recovery path degrades to.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "fault/injector.hpp"
#include "obs/explain.hpp"
#include "obs/span.hpp"
#include "testbed/abilene_paths.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace lsl;
using namespace lsl::time_literals;

enum class Mode { kRecovery, kNoRecovery, kDirect };

struct Trial {
  bool completed = false;
  double mbps = 0.0;
  int retries = 0;
};

Trial run_trial(Mode mode, double mtbf_s, std::uint64_t seed,
                obs::BreakdownTotals* totals = nullptr) {
  // Record spans for the trial so the JSON sidecar can report where the
  // recovery path spends its wall time (stall detection, backoff, failover
  // reconnects) rather than just the end-to-end goodput.
  obs::SpanRecorder spans(0);
  obs::ScopedSpanRecorder scope(totals != nullptr ? &spans : nullptr);
  testbed::PathTestbed bed(testbed::ucsb_uiuc_via_denver(), seed);
  exp::SimHarness& harness = bed.harness();
  fault::FaultInjector injector(harness.simulator(), harness.topology());
  injector.set_depot_control([&harness](net::NodeId node, bool up) {
    if (up) {
      harness.depot(node).restart();
    } else {
      harness.depot(node).shutdown();
    }
  });
  if (mode != Mode::kDirect) {
    fault::FaultPlan plan;
    fault::ChurnSpec churn;
    churn.node = bed.depot();
    churn.mtbf = SimTime::from_seconds(mtbf_s);
    churn.mttr = 2_s;
    churn.horizon = 600_s;
    Rng churn_rng(seed ^ 0x51ED270BULL);
    plan.add_churn(churn, churn_rng);
    injector.schedule(plan);
  }

  session::RecoveryConfig recovery;
  recovery.enabled = mode == Mode::kRecovery;
  recovery.stall_timeout = 5_s;
  recovery.max_backoff = 5_s;

  const auto handle = harness.launch_reliable(
      bed.src(), bed.make_spec(mode != Mode::kDirect, mib(64)), recovery);
  const auto r = harness.wait(handle, 600_s);
  Trial trial;
  trial.completed = r.completed;
  trial.mbps = r.goodput.megabits_per_second();
  trial.retries = r.retries;
  if (totals != nullptr) {
    for (const auto& b : obs::account_spans(spans.snapshot())) {
      totals->add(b);
    }
  }
  return trial;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Ablation -- depot churn vs session recovery (UCSB->UIUC, 64MB)",
      "Completion rate and goodput vs depot MTBF (MTTR 2s). Recovery "
      "should hold completion at 100% by failing over to the direct path "
      "and resuming at the committed offset; without it completion decays "
      "toward exp(-T/MTBF).");
  const auto opts = bench::parse_options(argc, argv);
  const std::size_t iterations = bench::scaled(5, 2);

  // Churn-immune baseline: one column, independent of MTBF.
  OnlineStats direct_bw;
  for (std::size_t it = 0; it < iterations; ++it) {
    const Trial t = run_trial(Mode::kDirect, 0.0, 9000 + it);
    if (t.completed) {
      direct_bw.add(t.mbps);
    }
  }

  Table table({"depot mtbf", "recov ok", "recov Mbit/s", "mean retries",
               "no-recov ok", "no-recov Mbit/s", "direct Mbit/s"});
  OnlineStats recov_bw_all;
  OnlineStats retries_all;
  std::size_t recov_ok_all = 0;
  std::size_t norecov_ok_all = 0;
  std::size_t trials_per_arm = 0;
  obs::BreakdownTotals recov_acct;
  for (const double mtbf_s : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    OnlineStats on_bw;
    OnlineStats retries;
    std::size_t on_ok = 0;
    OnlineStats off_bw;
    std::size_t off_ok = 0;
    for (std::size_t it = 0; it < iterations; ++it) {
      const std::uint64_t seed = 4000 + 17 * it;
      const Trial on = run_trial(Mode::kRecovery, mtbf_s, seed, &recov_acct);
      if (on.completed) {
        ++on_ok;
        on_bw.add(on.mbps);
        recov_bw_all.add(on.mbps);
      }
      retries.add(on.retries);
      retries_all.add(on.retries);
      const Trial off = run_trial(Mode::kNoRecovery, mtbf_s, seed);
      if (off.completed) {
        ++off_ok;
        off_bw.add(off.mbps);
      }
    }
    recov_ok_all += on_ok;
    norecov_ok_all += off_ok;
    trials_per_arm += iterations;
    const auto rate = [&](std::size_t ok) {
      return std::to_string(ok) + "/" + std::to_string(iterations);
    };
    table.add_row({Table::num(mtbf_s, 0) + "s", rate(on_ok),
                   on_bw.count() > 0 ? Table::num(on_bw.mean(), 1) : "-",
                   Table::num(retries.mean(), 1), rate(off_ok),
                   off_bw.count() > 0 ? Table::num(off_bw.mean(), 1) : "-",
                   Table::num(direct_bw.mean(), 1)});
  }
  table.print(std::cout);

  bench::JsonRecords records("ablate_depot_churn");
  const double arm = static_cast<double>(trials_per_arm);
  records.add("recovery_completion_rate",
              arm > 0.0 ? static_cast<double>(recov_ok_all) / arm : 0.0);
  records.add("norecovery_completion_rate",
              arm > 0.0 ? static_cast<double>(norecov_ok_all) / arm : 0.0);
  records.add("recovery_mbps_mean", recov_bw_all.mean());
  records.add("direct_mbps_mean", direct_bw.mean());
  records.add("retries_mean", retries_all.mean());
  // --explain accounting across every recovery trial, mean seconds per
  // transfer: churn cost shows up as stall (watchdog windows), backoff
  // (between attempts), and connect (failover reconnects) time.
  const auto per_transfer = [&](SimTime v) {
    return recov_acct.transfers > 0
               ? v.to_seconds() / static_cast<double>(recov_acct.transfers)
               : 0.0;
  };
  records.add("explain_recovery_wall_s", per_transfer(recov_acct.wall));
  records.add("explain_recovery_stream_s", per_transfer(recov_acct.stream));
  records.add("explain_recovery_stall_s", per_transfer(recov_acct.stall));
  records.add("explain_recovery_backoff_s", per_transfer(recov_acct.backoff));
  records.add("explain_recovery_connect_s", per_transfer(recov_acct.connect));
  records.add("explain_recovery_probe_s", per_transfer(recov_acct.probe));
  return records.write(opts.json_path) ? 0 : 1;
}
