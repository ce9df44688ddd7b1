// The perfbench program's shared pieces: options, seed derivation, the
// metric report, the per-layer metric table both workload families fill
// in, and the two workload families' entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required; run.py passes run_seconds by default
  bool trace = false;
  std::string repo = ".";  ///< repository root (holds scenarios/)
  std::string out_dir;     ///< traced runs write spans and cross-checks here
};

/// Deterministic child seed of `seed` for (a, b): SplitMix64 finalizer
/// chained over the inputs, so neighbouring indices give unrelated seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0);

/// Linear-interpolated quantile (q in [0, 1]) of `xs`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

/// Set-up cycles made before timing (a cycle is one set-up on each CPU
/// group in turn; see CpuRotation): at least kSetups, and more until
/// kSetupSeconds have passed, so that a set-up of half a millisecond is
/// sampled thousands of times and a longer one over more than a moment of
/// the host's load. All of them run before the first timed round:
/// a set-up that follows a 600 MiB sweep can stall ~0.1 s in the kernel's
/// memory management, which a user's one set-up at process start never
/// sees.
constexpr int kSetups = 9;
constexpr double kSetupSeconds = 1.0;

/// Pool sweeps after which peak_rss_mib is read: a fixed amount of work, so
/// the value does not depend on how many sweeps the host's speed fits into
/// the timed phase. Memory that sweeps leak still counts (a flow-fidelity
/// sweep leaks ~9 MiB).
constexpr std::uint64_t kRssSweeps = 8;

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Spreads timed work evenly over the CPUs this process may use. On a
/// shared host, other tenants slow single vCPUs for minutes at a time (the
/// same sweep pinned to one vCPU or another took 0.53 or 0.82 ms per
/// transfer), and a run the OS left on one of them would time that vCPU,
/// not the code. pin() binds the calling thread (and threads it starts
/// later) to `width` CPUs chosen round-robin by `step`; the destructor
/// restores the mask. Timed work is summarized per cycle, never per step:
/// a median over steps that land on fast and slow vCPUs jumps between the
/// two from run to run.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::uint64_t step, std::size_t width);
  /// Steps of `width` CPUs after which every CPU has been used equally
  /// often (1 when there is nothing to rotate over).
  [[nodiscard]] std::uint64_t cycle(std::size_t width) const;

 private:
  std::vector<int> cpus_;  ///< the CPUs allowed at construction
};

/// Repeat `set_up` in cycles as kSetups describes, each time on the next
/// `width` CPUs in turn (see CpuRotation). `set_up(first)` does one set-up
/// and returns its wall time; `first` tells it whether its result is the
/// one to keep. Returns the median over cycles of a cycle's mean set-up
/// time.
[[nodiscard]] double median_setup_s(
    std::size_t width, const std::function<double(bool first)>& set_up);

/// Whether a timed phase that has run `cycles` whole rotation cycles in
/// `elapsed_s` should start another: always after none, and otherwise when
/// that ends the phase nearer to `seconds` than stopping now does.
[[nodiscard]] bool another_cycle(std::uint64_t cycles, double elapsed_s,
                                 double seconds);

/// The ratio of the wall times `a()` / `b()` (each runs once and returns
/// its wall seconds), as the median over pairs that alternate which side
/// runs first: whichever runs second profits from the first's warm caches
/// and faulted-in memory, and alternating cancels that. One discarded run
/// of `a()` comes first, so that neither side pays for being the process's
/// first run of the work. Then an even number of pairs, at least 2, and
/// more until `budget_s` has passed.
[[nodiscard]] double paired_ratio(double budget_s,
                                  const std::function<double()>& a,
                                  const std::function<double()>& b);

/// The contents of the file at `path`; throws if it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// lslsim's always-on flight recorder (a 64-entry obs::SpanRecorder),
/// installed for one scope.
class FlightRecorder {
 public:
  FlightRecorder() { lsl::obs::set_spans(&recorder_); }
  ~FlightRecorder() { lsl::obs::set_spans(nullptr); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] lsl::obs::SpanRecorder& recorder() { return recorder_; }

 private:
  lsl::obs::SpanRecorder recorder_{64};
};

/// Metrics by name with units, plus the correctness verdict.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check; the run is then not correct.
  void error(const std::string& what);
  /// Count one unit of work and whether it passed its output checks.
  void attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }

  /// Every unit passed and no other check failed.
  [[nodiscard]] bool ok() const { return errors_.empty() && failed_ == 0; }

  /// Human-readable table, then the one-line JSON result (last line).
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Inputs of the per-layer metrics, gathered by a traced pass. Exact counts
/// come from kernel profiles and obs::Registry counters read at the
/// benchmark's call boundaries; times come from the benchmark's spans.
struct Layers {
  std::uint64_t transfers = 0;
  double payload_mib = 0.0;
  lsl::sim::KernelProfile kernel;  ///< merged over every traced unit
  double loop_s = 0.0;         ///< wall inside the simulation loop
  double outside_loop_s = 0.0; ///< per-transfer wall around it
  double grid_build_s = 0.0;
  double materialize_s = 0.0;  ///< PathTestbed / materialize_path calls
  double monitor_s = 0.0;
  double tree_build_s = 0.0;
  double route_s = 0.0;
  std::uint64_t span_events = 0;  ///< obs::SpanRecorder records
  double obs_overhead_ratio = 0.0;
  double trace_overhead_ratio = 0.0;
  /// obs::Registry counters summed over the traced units, in the order of
  /// kRegistryCounters, plus the depot buffer gauge's high water.
  std::vector<double> registry;
  double depot_buffer_high_water = 0.0;
};

/// Zero the registry, so the next read_registry() sees only what ran since.
void reset_registry();
/// Add the registry's current counter values into `layers`.
void read_registry(Layers& layers);

/// Emit every per-layer metric (zero where the layer did no work).
void report_layers(const Layers& layers, Report& report);

/// Run the packet workload (paths_packet; packet.cpp) or a pool workload
/// (pool_flow, pool_control; pool.cpp): the untraced timed pass (trace off)
/// or the traced per-layer pass (trace on), with output checks, into
/// `report`.
void run_packet_workload(const Options& options, Report& report);
void run_pool_workload(const Options& options, Report& report);

}  // namespace perfbench
