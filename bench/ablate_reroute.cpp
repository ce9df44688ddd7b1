// Ablation: mid-transfer adaptive rerouting vs riding out a brownout.
//
// A 48MB transfer starts on its forecast-best path (via depot.a); two
// seconds in, that path's wide-area hop browns out to 5% of its rate for
// the rest of the run. With rerouting the NWS loop measures the throttled
// link, the forecasts drift, and the RouteAdvisor hands the live session
// over to depot.b (drain to the committed offset, resume there); without
// it the transfer crawls to the finish at brownout speed. "clean" is the
// no-fault ceiling, and the control column re-runs the reroute
// configuration with steady forecasts -- it must never reroute (the
// hysteresis margin has to absorb measurement noise).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "exp/scenario.hpp"
#include "obs/explain.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace lsl;
using namespace lsl::time_literals;

struct Trial {
  bool completed = false;
  double mbps = 0.0;
  int reroutes = 0;
};

exp::Scenario make_scenario(bool faulted, bool rerouting) {
  exp::Scenario s;
  // NodeIds are the hosts' indices here.
  constexpr net::NodeId kSrc = 0;
  constexpr net::NodeId kDepotA = 1;
  constexpr net::NodeId kDepotB = 2;
  constexpr net::NodeId kSink = 3;
  s.hosts = {{"src", "site-a"},
             {"depot.a", "core-a"},
             {"depot.b", "core-b"},
             {"sink", "site-b"}};
  const auto link = [&s](net::NodeId a, net::NodeId b, double mbps,
                         double delay_ms) {
    exp::ScenarioLink l;
    l.a = a;
    l.b = b;
    l.config.rate = Bandwidth::mbps(mbps);
    l.config.propagation_delay = SimTime::from_seconds(delay_ms * 1e-3);
    l.config.queue_capacity_bytes = mib(4);
    l.config.loss_rate = 1e-5;
    s.links.push_back(std::move(l));
  };
  link(kSrc, kDepotA, 100, 10);
  link(kDepotA, kSink, 100, 10);
  link(kSrc, kDepotB, 80, 12);
  link(kDepotB, kSink, 80, 12);
  link(kSrc, kSink, 20, 40);
  s.pins.emplace_back(kSrc, kSink);
  s.depot.tcp = s.depot.tcp.with_buffers(mib(4));
  s.depot.user_buffer_bytes = mib(8);

  session::RecoveryConfig recovery;
  recovery.max_retries = 4;
  s.recovery = recovery;

  if (faulted) {
    s.faults.add({.kind = fault::FaultKind::kLinkBrownout,
                  .at = 2_s,
                  .duration = 120_s,
                  .link_a = kDepotA,
                  .link_b = kSink,
                  .loss = 0.0,
                  .rate_factor = 0.05});
  }
  if (rerouting) {
    exp::ScenarioReroute rr;
    rr.interval_s = 1.0;
    rr.hysteresis = 0.2;
    rr.dwell_s = 3.0;
    rr.penalty_s = 0.5;
    rr.sigma = 0.02;
    s.reroute = rr;
  }

  exp::ScenarioTransfer t;
  t.src = kSrc;
  t.dst = kSink;
  t.via = {kDepotA};
  t.bytes = mib(48);
  t.buffer_bytes = mib(4);
  s.transfers.push_back(std::move(t));
  return s;
}

Trial run_trial(bool faulted, bool rerouting, std::uint64_t seed,
                obs::BreakdownTotals* totals = nullptr) {
  // Record spans for the trial and fold the per-transfer time accounting
  // into `totals` (the JSON sidecar reports where the wall time went).
  obs::SpanRecorder spans(0);
  obs::ScopedSpanRecorder scope(totals != nullptr ? &spans : nullptr);
  const auto outcomes =
      exp::run_scenario(make_scenario(faulted, rerouting), seed, 600_s);
  Trial trial;
  if (!outcomes.empty()) {
    trial.completed = outcomes[0].outcome.completed;
    trial.mbps = outcomes[0].outcome.goodput.megabits_per_second();
    trial.reroutes = outcomes[0].outcome.reroutes;
  }
  if (totals != nullptr) {
    for (const auto& b : obs::account_spans(spans.snapshot())) {
      totals->add(b);
    }
  }
  return trial;
}

}  // namespace

int main(int argc, char** argv) {
  lsl::bench::banner(
      "Ablation -- adaptive reroute vs brownout (48MB, depot.a throttled)",
      "Goodput with/without mid-transfer rerouting when the scheduled "
      "path's WAN hop drops to 5% rate at t=2s. Rerouting should recover "
      "most of the lost throughput; the steady-forecast control must show "
      "zero reroutes (hysteresis absorbs measurement noise).");
  const auto opts = lsl::bench::parse_options(argc, argv);
  const std::size_t iterations = lsl::bench::scaled(5, 2);

  OnlineStats reroute_bw;
  OnlineStats reroute_count;
  OnlineStats noreroute_bw;
  OnlineStats clean_bw;
  int control_reroutes = 0;
  std::size_t all_completed = 0;
  lsl::obs::BreakdownTotals on_acct;
  lsl::obs::BreakdownTotals off_acct;
  for (std::size_t it = 0; it < iterations; ++it) {
    const std::uint64_t seed = 5000 + 13 * it;
    const Trial on =
        run_trial(/*faulted=*/true, /*rerouting=*/true, seed, &on_acct);
    const Trial off =
        run_trial(/*faulted=*/true, /*rerouting=*/false, seed, &off_acct);
    const Trial clean =
        run_trial(/*faulted=*/false, /*rerouting=*/false, seed);
    const Trial control =
        run_trial(/*faulted=*/false, /*rerouting=*/true, seed);
    all_completed += static_cast<std::size_t>(
        on.completed && off.completed && clean.completed &&
        control.completed);
    reroute_bw.add(on.mbps);
    reroute_count.add(on.reroutes);
    noreroute_bw.add(off.mbps);
    clean_bw.add(clean.mbps);
    control_reroutes += control.reroutes;
  }

  // Of the throughput the brownout took away (clean - no-reroute), how
  // much did rerouting win back?
  const double lost = clean_bw.mean() - noreroute_bw.mean();
  const double recovered =
      lost > 0.0 ? (reroute_bw.mean() - noreroute_bw.mean()) / lost : 0.0;

  lsl::Table table({"config", "Mbit/s", "reroutes"});
  table.add_row({"brownout + reroute", lsl::Table::num(reroute_bw.mean(), 1),
                 lsl::Table::num(reroute_count.mean(), 1)});
  table.add_row({"brownout, no reroute",
                 lsl::Table::num(noreroute_bw.mean(), 1), "0"});
  table.add_row({"clean (ceiling)", lsl::Table::num(clean_bw.mean(), 1),
                 "-"});
  table.add_row({"control (reroute, steady)", "-",
                 std::to_string(control_reroutes)});
  table.print(std::cout);
  std::printf("\nlost-throughput recovered: %.0f%% (target >= 20%%); "
              "control reroutes: %d (must be 0); "
              "all trials completed: %zu/%zu\n",
              recovered * 100.0, control_reroutes, all_completed,
              iterations);

  lsl::bench::JsonRecords records("ablate_reroute");
  records.add("reroute_mbps", reroute_bw.mean());
  records.add("noreroute_mbps", noreroute_bw.mean());
  records.add("clean_mbps", clean_bw.mean());
  records.add("reroute_vs_noreroute_speedup",
              noreroute_bw.mean() > 0.0
                  ? reroute_bw.mean() / noreroute_bw.mean()
                  : 0.0);
  records.add("lost_throughput_recovered_fraction", recovered);
  records.add("control_reroutes_total", control_reroutes);
  records.add("handovers_mean", reroute_count.mean());
  // Where the wall time went (--explain accounting, mean seconds per
  // transfer): rerouting should trade stall/probe time for a small
  // handover cost; without it the brownout shows up as stream time.
  const auto per_transfer = [](const lsl::obs::BreakdownTotals& t,
                               lsl::SimTime v) {
    return t.transfers > 0
               ? v.to_seconds() / static_cast<double>(t.transfers)
               : 0.0;
  };
  records.add("explain_reroute_wall_s", per_transfer(on_acct, on_acct.wall));
  records.add("explain_reroute_stream_s",
              per_transfer(on_acct, on_acct.stream));
  records.add("explain_reroute_handover_s",
              per_transfer(on_acct, on_acct.handover));
  records.add("explain_reroute_stall_s", per_transfer(on_acct, on_acct.stall));
  records.add("explain_noreroute_wall_s",
              per_transfer(off_acct, off_acct.wall));
  records.add("explain_noreroute_stream_s",
              per_transfer(off_acct, off_acct.stream));
  if (!records.write(opts.json_path)) {
    return 1;
  }
  return control_reroutes == 0 && recovered >= 0.2 ? 0 : 1;
}
