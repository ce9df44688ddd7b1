// Shared runner for the google-benchmark micro-benchmarks: strips the
// bench_common flags from argv, runs every registered benchmark and records
// each run as JsonRecords, so a main() only derives its paired ratio records
// and writes --json.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace lsl::bench {

/// Console output as usual, plus one JsonRecords entry per run: its mean
/// per-iteration wall time as <name>_wall_seconds and each counter (rates
/// such as items_per_second) as <name>_<counter>. These are perf-trajectory
/// numbers; callers pair two runs' seconds() into machine-independent
/// _ratio / _speedup records for the regression gate.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(JsonRecords& records) : records_(records) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      const double seconds =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      records_.add(run.benchmark_name() + "_wall_seconds", seconds);
      seconds_by_name_[run.benchmark_name()] = seconds;
      for (const auto& [name, counter] : run.counters) {
        records_.add(run.benchmark_name() + "_" + name,
                     static_cast<double>(counter));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Mean per-iteration seconds of `name`, or 0 when it did not run.
  [[nodiscard]] double seconds(const std::string& name) const {
    const auto it = seconds_by_name_.find(name);
    return it == seconds_by_name_.end() ? 0.0 : it->second;
  }

 private:
  JsonRecords& records_;
  std::map<std::string, double> seconds_by_name_;
};

/// Runs every registered benchmark through `reporter`, passing
/// google-benchmark all of argv except --json and --jobs (read by
/// parse_options).
inline void run_micro_benchmarks(int argc, char** argv,
                                 RecordingReporter& reporter) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--json") == 0 ||
         std::strcmp(argv[i], "--jobs") == 0) &&
        i + 1 < argc) {
      ++i;
    } else if (std::strncmp(argv[i], "--json=", 7) != 0 &&
               std::strncmp(argv[i], "--jobs=", 7) != 0) {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
}

}  // namespace lsl::bench
