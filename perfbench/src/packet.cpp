// The packet workload, paths_packet. Every unit is one transfer on a fresh
// simulation: the Figs 2-5 grid (both Abilene paths, direct and via the
// depot, 1..64 MiB) plus one-transfer copies of scenarios/high_bdp.lsl,
// two_depot_chain.lsl, depot_churn.lsl and forecast_drift.lsl. A round runs
// every unit once; each round draws fresh unit seeds from the workload
// seed, so a run averages over several loss and fault draws.
#include "bench.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "exp/parallel.hpp"
#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "spans.hpp"
#include "testbed/abilene_paths.hpp"

namespace perfbench {
namespace {

namespace exp = lsl::exp;
namespace obs = lsl::obs;
namespace sim = lsl::sim;
namespace testbed = lsl::testbed;
using lsl::SimTime;

/// Fig 2-5 transfer sizes: 1 MiB << 0..6.
constexpr int kPathSizeSteps = 7;
/// Transfers the untimed count pass reads kernel profiles from: enough
/// fault draws that events_per_transfer varies little from seed to seed.
constexpr std::size_t kCountedTransfers = 64;

/// One transfer of a scenario file, runnable alone the way lslsim --sweep
/// splits a scenario, and the same copy as scenario text (for lslsim).
struct ScenarioCopy {
  std::string name;
  exp::Scenario scenario;
  std::string text;
};

struct Inputs {
  std::vector<testbed::PathScenario> paths;
  std::vector<ScenarioCopy> copies;
  std::vector<ScenarioCopy> warmup_copies;  ///< the copies at 1 MiB
};

/// Scenario text with every `transfer` line but the index-th removed.
std::string keep_transfer(const std::string& text, std::size_t index) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  std::size_t seen = 0;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string first;
    words >> first;
    if (first == "transfer" && seen++ != index) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

void add_copies(const std::string& repo, const std::string& name,
                Inputs& inputs) {
  const std::string text = read_file(repo + "/scenarios/" + name + ".lsl");
  const exp::ParseResult parsed = exp::parse_scenario(text);
  if (!parsed.ok()) {
    throw std::runtime_error(name + ".lsl: " + parsed.error);
  }
  const exp::Scenario& full = *parsed.scenario;
  for (std::size_t t = 0; t < full.transfers.size(); ++t) {
    ScenarioCopy copy{name + "#" + std::to_string(t), full,
                      keep_transfer(text, t)};
    copy.scenario.transfers = {full.transfers[t]};
    const exp::ParseResult reparsed = exp::parse_scenario(copy.text);
    if (!reparsed.ok() || reparsed.scenario->transfers.size() != 1 ||
        reparsed.scenario->transfers[0].bytes != full.transfers[t].bytes) {
      throw std::runtime_error(copy.name + ": one-transfer copy misparsed");
    }
    ScenarioCopy warm = copy;
    warm.scenario.transfers[0].bytes = lsl::mib(1);
    inputs.copies.push_back(std::move(copy));
    inputs.warmup_copies.push_back(std::move(warm));
  }
}

Inputs load_inputs(const Options& options) {
  Inputs inputs;
  inputs.paths = {testbed::ucsb_uiuc_via_denver(),
                  testbed::ucsb_uf_via_houston()};
  for (const char* name :
       {"high_bdp", "two_depot_chain", "depot_churn", "forecast_drift"}) {
    add_copies(options.repo, name, inputs);
  }
  return inputs;
}

struct Unit {
  std::string label;
  const testbed::PathScenario* path = nullptr;  ///< Abilene grid point, or
  bool via_depot = false;
  const ScenarioCopy* copy = nullptr;           ///< a scenario copy
  std::uint64_t bytes = 0;
  std::uint64_t seed = 0;
};

/// Every unit of `round` (or, with warmup, each unit kind once at 1 MiB;
/// the caller gives warm-ups a fixed seed, so every set-up does the same
/// work whatever the run's seed).
std::vector<Unit> make_units(const Inputs& inputs, std::uint64_t seed,
                             std::uint64_t round, bool warmup) {
  std::vector<Unit> units;
  for (const testbed::PathScenario& path : inputs.paths) {
    for (const bool via : {false, true}) {
      for (int step = 0; step < (warmup ? 1 : kPathSizeSteps); ++step) {
        Unit u;
        u.bytes = lsl::mib(1) << step;
        u.label = path.name + (via ? "/depot/" : "/direct/") +
                  std::to_string(u.bytes / lsl::kMiB) + "MiB";
        u.path = &path;
        u.via_depot = via;
        units.push_back(u);
      }
    }
  }
  for (const ScenarioCopy& copy :
       warmup ? inputs.warmup_copies : inputs.copies) {
    Unit u;
    u.label = copy.name;
    u.copy = &copy;
    u.bytes = copy.scenario.transfers.front().bytes;
    units.push_back(u);
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    units[i].seed = derive_seed(seed, warmup ? ~0ULL : round, i);
  }
  return units;
}

/// The simulated result of a unit; identical across passes by determinism.
struct Outcome {
  bool completed = false;
  bool failed = false;
  std::uint64_t bytes = 0;
  std::int64_t elapsed_ns = 0;
  int retries = 0;
  int reroutes = 0;
  std::size_t leaked = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const exp::SimHarness::TransferOutcome& o,
                   std::size_t leaked) {
  return Outcome{o.completed, o.failed,  o.bytes, o.elapsed.ns(),
                 o.retries,   o.reroutes, leaked};
}

/// Empty when the unit passed its output checks, else why it failed.
std::string check(const Unit& unit, const Outcome& o) {
  if (!o.completed || o.failed) {
    return unit.label + ": transfer did not complete";
  }
  if (o.bytes != unit.bytes) {
    return unit.label + ": delivered " + std::to_string(o.bytes) + " of " +
           std::to_string(unit.bytes) + " bytes";
  }
  if (o.leaked != 0) {
    return unit.label + ": " + std::to_string(o.leaked) +
           " connections alive after teardown";
  }
  return {};
}

enum class Pass {
  kDefault,  ///< lslsim defaults, nothing extra read
  kCount,    ///< also read the kernel profile (untimed)
  kTraced,   ///< kCount plus benchmark spans
};

struct UnitRun {
  Outcome outcome;
  double wall_s = 0.0;         ///< build + run + teardown
  double loop_s = 0.0;         ///< inside the simulation loop
  double materialize_s = 0.0;  ///< PathTestbed construction
  sim::KernelProfile kernel;   ///< kCount / kTraced only
};

UnitRun run_unit(const Unit& unit, Pass pass, SpanLog* spans,
                 std::uint64_t unit_id) {
  UnitRun r;
  const bool counts = pass != Pass::kDefault;
  SpanLog* log = pass == Pass::kTraced ? spans : nullptr;
  const Clock::time_point start = Clock::now();
  {
    SpanLog::Scope root(log, "bench.transfer", unit_id);
    if (unit.path != nullptr) {
      std::unique_ptr<testbed::PathTestbed> bed;
      {
        SpanLog::Scope s(log, "testbed.build", unit_id);
        bed = std::make_unique<testbed::PathTestbed>(*unit.path, unit.seed);
      }
      const Clock::time_point built = Clock::now();
      r.materialize_s = seconds_between(start, built);
      exp::SimHarness::TransferOutcome o;
      {
        SpanLog::Scope s(log, "exp.run", unit_id);
        o = bed->run(unit.via_depot, unit.bytes);
      }
      r.loop_s = seconds_between(built, Clock::now());
      r.outcome = outcome_of(o, bed->harness().open_connection_count());
      if (counts) {
        r.kernel = bed->harness().simulator().profile();
      }
      SpanLog::Scope s(log, "exp.teardown", unit_id);
      bed.reset();
    } else {
      // run_scenario builds, runs, drains and tears down in one call; with
      // profile_out it also times dispatch (as lslsim --profile does), which
      // is the only view of its loop time from outside.
      std::size_t leaked = 0;
      std::vector<exp::ScenarioOutcome> outcomes;
      {
        SpanLog::Scope s(log, "exp.run_scenario", unit_id);
        outcomes = exp::run_scenario(unit.copy->scenario, unit.seed,
                                     SimTime::seconds(3600),
                                     counts ? &r.kernel : nullptr, &leaked);
      }
      r.outcome = outcome_of(outcomes.front().outcome, leaked);
      r.loop_s = r.kernel.wall_seconds;
    }
  }
  r.wall_s = seconds_between(start, Clock::now());
  return r;
}

/// Run `unit` with built-in metrics off and no span recorder.
UnitRun run_obs_off(const Unit& unit, obs::SpanRecorder& restore) {
  obs::set_metrics_enabled(false);
  obs::set_spans(nullptr);
  UnitRun r = run_unit(unit, Pass::kDefault, nullptr, 0);
  obs::set_metrics_enabled(true);
  obs::set_spans(&restore);
  return r;
}

/// Files for run.py's lslsim cross-check of one scenario unit: the
/// one-transfer scenario and the kernel counts the traced pass read.
void write_crosscheck(const Options& options, const Unit& unit,
                      const sim::KernelProfile& k, Report& report) {
  const std::string stem = options.out_dir + "/crosscheck_" + options.workload;
  std::ofstream lsl(stem + ".lsl");
  lsl << unit.copy->text;
  std::ofstream json(stem + ".json");
  json << "{\"unit\": \"" << unit.label << "\", \"scenario\": \"" << stem
       << ".lsl\", \"seed\": " << unit.seed
       << ", \"events_executed\": " << k.events_executed
       << ", \"events_scheduled\": " << k.events_scheduled
       << ", \"events_cancelled\": " << k.events_cancelled
       << ", \"queue_high_water\": " << k.queue_high_water
       << ", \"categories\": {";
  for (std::size_t i = 0; i < k.category_counts.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << k.category_counts[i].first
         << "\": " << k.category_counts[i].second;
  }
  json << "}}\n";
  if (!lsl.good() || !json.good()) {
    report.error("cannot write " + stem + ".{lsl,json}");
  }
}

/// What a timed transfer's process reports back.
struct UnitRecord {
  double wall_ms = 0.0;  ///< build + run + teardown
  Outcome outcome;
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Run `work` in a forked child process and return its result, which must
/// be trivially copyable; `peak_rss_mib`, if given, receives the child's
/// peak resident size. The child exits without returning into the caller's
/// code (or flushing the caller's buffered output).
template <typename T, typename Work>
T in_child(const std::string& what, const Work& work,
           double* peak_rss_mib = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("cannot create a pipe");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("cannot fork");
  }
  if (pid == 0) {
    close(fds[0]);
    bool sent = false;
    try {
      const T out = work();
      sent = write_all(fds[1], &out, sizeof out);
    } catch (...) {
    }
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  T result{};
  const bool received = read_all(fds[0], &result, sizeof result);
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(what + ": its process failed");
  }
  if (peak_rss_mib != nullptr) {
    *peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }
  return result;
}

void timed_pass(const Options& options, const Inputs& inputs,
                Report& report) {
  // Whole rotation cycles of rounds (see CpuRotation) until the time is up.
  // Every round holds the same unit kinds (path x mode x size, scenario
  // copy) at fresh seeds and runs on the next CPU. A transfer's wall time
  // is summarized per kind by its mean over each cycle's rounds, which
  // weighs every CPU alike, then by the median over the run's cycles, which
  // shrugs off a cycle the host slowed; the percentiles are taken over
  // those kind values.
  //
  // Every transfer runs in a process of its own, as lslsim runs one
  // transfer, and peak_rss_mib is the mean of those processes' peaks. One
  // long-lived process would report the largest peak of any draw instead,
  // and the peak of the high_bdp depot copy alone ranges from 3 to 16 MiB
  // with the draw (its congestion window), so that maximum over a run's ~11
  // draws moves ~20% from seed to seed.
  std::vector<std::vector<double>> kind_ms;  ///< [kind][cycle]
  std::vector<Outcome> timed_outcomes;       ///< in unit order, every round
  double rss_sum_mib = 0.0;
  std::uint64_t completed = 0;
  double timed_s = 0.0;
  std::optional<CpuRotation> rotation(std::in_place);
  const std::uint64_t steps = rotation->cycle(1);
  std::uint64_t rounds = 0;  ///< so far
  const Clock::time_point start = Clock::now();
  for (std::uint64_t cycle = 0;
       another_cycle(cycle, seconds_between(start, Clock::now()),
                     options.seconds);
       ++cycle) {
    std::vector<double> cycle_ms;  ///< per kind, summed over the rounds
    for (std::uint64_t step = 0; step < steps; ++step, ++rounds) {
      rotation->pin(step, 1);  // the transfers' processes inherit the mask
      const std::vector<Unit> units =
          make_units(inputs, options.seed, rounds, /*warmup=*/false);
      std::vector<UnitRecord> records(units.size());
      const Clock::time_point round_start = Clock::now();
      for (std::size_t i = 0; i < units.size(); ++i) {
        double rss_mib = 0.0;
        records[i] = in_child<UnitRecord>(
            units[i].label,
            [&unit = units[i]] {
              FlightRecorder recorder;
              const UnitRun r = run_unit(unit, Pass::kDefault, nullptr, 0);
              return UnitRecord{r.wall_s * 1e3, r.outcome};
            },
            &rss_mib);
        rss_sum_mib += rss_mib;
      }
      timed_s += seconds_between(round_start, Clock::now());
      cycle_ms.resize(units.size(), 0.0);
      for (std::size_t i = 0; i < units.size(); ++i) {
        const std::string why = check(units[i], records[i].outcome);
        report.attempt(why.empty());
        if (why.empty()) {
          ++completed;
        } else {
          report.error(why);
        }
        cycle_ms[i] += records[i].wall_ms;
        timed_outcomes.push_back(records[i].outcome);
      }
    }
    kind_ms.resize(cycle_ms.size());
    for (std::size_t i = 0; i < cycle_ms.size(); ++i) {
      kind_ms[i].push_back(cycle_ms[i] / static_cast<double>(steps));
    }
  }
  rotation.reset();  // the count pass's workers may use every CPU again
  std::vector<double> kind_medians;
  for (const std::vector<double>& samples : kind_ms) {
    kind_medians.push_back(median(samples));
  }

  // Exact counts, untimed: the units of the first rounds once more (at
  // least kCountedTransfers, on 3 trial workers), reading each unit's
  // kernel profile. Determinism makes them the timed units' counts; the
  // outcomes of the units that were timed must match to prove it.
  std::vector<Unit> counted;
  for (std::uint64_t round = 0; counted.size() < kCountedTransfers; ++round) {
    for (Unit& unit : make_units(inputs, options.seed, round, false)) {
      counted.push_back(std::move(unit));
    }
  }
  exp::TrialOptions trial_options;
  trial_options.jobs = 3;
  std::vector<UnitRun> runs;
  {
    FlightRecorder recorder;
    runs = exp::map_trials<UnitRun>(
        counted.size(), trial_options, [&counted](std::size_t i) {
          return run_unit(counted[i], Pass::kCount, nullptr, 0);
        });
  }
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (const std::string why = check(counted[i], runs[i].outcome);
        !why.empty()) {
      report.error("count pass " + why);
    }
    if (i < timed_outcomes.size() && !(runs[i].outcome == timed_outcomes[i])) {
      report.error(counted[i].label +
                   ": rerun at the same seed gave another outcome");
    }
    events += runs[i].kernel.events_executed;
  }
  report.set("transfers_per_s", static_cast<double>(completed) / timed_s,
             "1/s");
  report.set("transfer_ms.p50", quantile(kind_medians, 0.5), "ms");
  report.set("transfer_ms.p90", quantile(kind_medians, 0.9), "ms");
  report.set("events_per_transfer",
             static_cast<double>(events) / static_cast<double>(runs.size()),
             "events");
  report.set("peak_rss_mib",
             rss_sum_mib / static_cast<double>(timed_outcomes.size()), "MiB");
}

/// How the traced pass runs a round of units.
enum class Variant {
  kDefault,  ///< lslsim defaults
  kTraced,   ///< lslsim defaults plus the benchmark's spans and counts
  kObsOff,   ///< built-in metrics off, no span recorder
};

void traced_pass(const Options& options, const Inputs& inputs,
                 Report& report) {
  const std::vector<Unit> units =
      make_units(inputs, options.seed, 0, /*warmup=*/false);
  FlightRecorder flight;
  Layers layers;  ///< from the first traced round
  SpanLog spans;  ///< the same
  std::vector<Outcome> first;  ///< the first round's outcomes, per unit
  bool crosschecked = false;

  // One round of every unit; returns the sum of the units' wall times.
  // Every round must reproduce the first round's outcomes.
  const auto round = [&](Variant variant) {
    Layers scratch_layers;
    SpanLog scratch_spans;
    const bool collect = variant == Variant::kTraced && layers.transfers == 0;
    Layers& l = collect ? layers : scratch_layers;
    SpanLog& log = collect ? spans : scratch_spans;
    double wall_s = 0.0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& unit = units[i];
      UnitRun r;
      if (variant == Variant::kDefault) {
        r = run_unit(unit, Pass::kDefault, nullptr, 0);
      } else if (variant == Variant::kObsOff) {
        r = run_obs_off(unit, flight.recorder());
      } else {
        reset_registry();
        const std::uint64_t recorded = flight.recorder().total_recorded();
        r = run_unit(unit, Pass::kTraced, &log, i + 1);
        l.span_events += flight.recorder().total_recorded() - recorded;
        read_registry(l);
        ++l.transfers;
        l.payload_mib +=
            static_cast<double>(unit.bytes) / static_cast<double>(lsl::kMiB);
        l.kernel.merge_from(r.kernel);
        l.loop_s += r.loop_s;
        l.outside_loop_s += r.wall_s - r.loop_s;
        l.materialize_s += r.materialize_s;
        if (collect && unit.copy != nullptr && !crosschecked &&
            !options.out_dir.empty()) {
          write_crosscheck(options, unit, r.kernel, report);
          crosschecked = true;
        }
      }
      wall_s += r.wall_s;
      if (first.size() == i) {
        first.push_back(r.outcome);
        const std::string why = check(unit, r.outcome);
        report.attempt(why.empty());
        if (!why.empty()) {
          report.error(why);
        }
      } else if (!(r.outcome == first[i])) {
        report.error(unit.label +
                     ": traced, untraced and obs-off outcomes differ");
      }
    }
    return wall_s;
  };
  const double budget_s = options.seconds / 2.0;
  layers.obs_overhead_ratio =
      paired_ratio(budget_s, [&] { return round(Variant::kDefault); },
                   [&] { return round(Variant::kObsOff); });
  layers.trace_overhead_ratio =
      paired_ratio(budget_s, [&] { return round(Variant::kTraced); },
                   [&] { return round(Variant::kDefault); });
  report_layers(layers, report);
  print_self_times(spans);
  if (!options.out_dir.empty() &&
      !spans.write_json(options.out_dir + "/spans_" + options.workload +
                        ".json")) {
    report.error("cannot write spans to " + options.out_dir);
  }
}

/// One set-up: read and parse the scenarios, then warm up on every unit
/// kind at 1 MiB. Returns its wall time.
double set_up(const Options& options, Report& report) {
  const Clock::time_point start = Clock::now();
  const Inputs inputs = load_inputs(options);
  FlightRecorder recorder;
  for (const Unit& unit : make_units(inputs, /*seed=*/0, 0, true)) {
    const UnitRun r = run_unit(unit, Pass::kDefault, nullptr, 0);
    if (const std::string why = check(unit, r.outcome); !why.empty()) {
      report.error("warm-up " + why);
    }
  }
  return seconds_between(start, Clock::now());
}

/// What a set-up's process reports back.
struct SetupRecord {
  double wall_s = 0.0;
  bool ok = false;  ///< every warm-up transfer passed its checks
};

}  // namespace

void run_packet_workload(const Options& options, Report& report) {
  // Every set-up (see kSetups) runs in a process of its own, as a user's
  // runs at process start. The timed transfers' processes are forked from
  // this one and inherit its memory, and the library keeps ~1 KiB for every
  // transfer a process has run: set-ups made here would make peak_rss_mib
  // depend on how many of them fit into kSetupSeconds.
  const Inputs inputs = load_inputs(options);
  const double setup_s = median_setup_s(1, [&](bool /*first*/) {
    const SetupRecord r = in_child<SetupRecord>("a set-up", [&options] {
      Report checks;
      const double wall_s = set_up(options, checks);
      return SetupRecord{wall_s, checks.ok()};
    });
    if (!r.ok) {
      report.error("a warm-up transfer failed its checks");
    }
    return r.wall_s;
  });
  if (options.trace) {
    traced_pass(options, inputs, report);
    return;
  }
  timed_pass(options, inputs, report);
  report.set("setup_s", setup_s, "s");
}

}  // namespace perfbench
