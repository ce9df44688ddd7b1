#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "util/units.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  const auto mix = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30U)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27U)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31U);
  };
  return mix(mix(mix(seed) ^ a) ^ b);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) {
    CPU_SET(cpu, &allowed);
  }
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

void CpuRotation::pin(std::uint64_t step, std::size_t width) {
  if (cpus_.size() <= width) {
    return;  // nothing to rotate over
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (std::size_t i = 0; i < width; ++i) {
    CPU_SET(cpus_[(step * width + i) % cpus_.size()], &mask);
  }
  sched_setaffinity(0, sizeof mask, &mask);
}

std::uint64_t CpuRotation::cycle(std::size_t width) const {
  if (cpus_.size() <= width) {
    return 1;
  }
  return cpus_.size() / std::gcd(cpus_.size(), width);
}

double median_setup_s(std::size_t width,
                      const std::function<double(bool first)>& set_up) {
  std::vector<double> cycle_means;
  CpuRotation rotation;
  const std::uint64_t steps = rotation.cycle(width);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t c = 0;
       c < kSetups || seconds_between(start, Clock::now()) < kSetupSeconds;
       ++c) {
    double sum_s = 0.0;
    for (std::uint64_t step = 0; step < steps; ++step) {
      rotation.pin(step, width);
      sum_s += set_up(c == 0 && step == 0);
    }
    cycle_means.push_back(sum_s / static_cast<double>(steps));
  }
  return median(cycle_means);
}

bool another_cycle(std::uint64_t cycles, double elapsed_s, double seconds) {
  if (cycles == 0) {
    return true;
  }
  const double per_cycle_s = elapsed_s / static_cast<double>(cycles);
  return elapsed_s + per_cycle_s / 2.0 < seconds;
}

double paired_ratio(double budget_s, const std::function<double()>& a,
                    const std::function<double()>& b) {
  std::vector<double> ratios;
  (void)a();  // the warm-up: see the declaration
  const Clock::time_point start = Clock::now();
  for (std::size_t pair = 0;
       pair < 2 || pair % 2 != 0 ||
       seconds_between(start, Clock::now()) < budget_s;
       ++pair) {
    double wall_a = 0.0;
    double wall_b = 0.0;
    if (pair % 2 == 0) {
      wall_a = a();
      wall_b = b();
    } else {
      wall_b = b();
      wall_a = a();
    }
    ratios.push_back(wall_a / wall_b);
  }
  return median(ratios);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    error("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::error(const std::string& what) { errors_.push_back(what); }

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // fail_ratio rides in the result line as failed / attempted: a metric
  // entry must never read zero, and this one always should.
  std::printf("  %-36s %16.6f %s  (%llu of %llu units)\n", "fail_ratio",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              "ratio", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& e : errors_) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

/// obs::Registry counters the per-layer metrics read, indexed by Counter.
const std::vector<const char*> kRegistryCounters = {
    "tcp.conn.segments_sent",   "tcp.conn.retransmits",
    "tcp.conn.timeouts",        "tcp.conn.sack_blocks_rx",
    "tcp.conn.opened",          "lsl.depot.bytes_relayed",
    "lsl.recovery.retries",     "lsl.recovery.planned_handovers",
    "nws.monitor.observations", "sched.mmp.trees_built",
    "sched.mmp.route_decisions", "sched.mmp.repair_fallbacks",
    "fault.injected",
};

enum Counter : std::size_t {
  kSegments,
  kRetransmits,
  kTimeouts,
  kSackBlocks,
  kConnsOpened,
  kBytesRelayed,
  kRetries,
  kHandovers,
  kObservations,
  kTreesBuilt,
  kRouteDecisions,
  kRepairFallbacks,
  kFaultsInjected,
};
}  // namespace

void reset_registry() { lsl::obs::Registry::global().reset_values(); }

void read_registry(Layers& layers) {
  auto& registry = lsl::obs::Registry::global();
  layers.registry.resize(kRegistryCounters.size(), 0.0);
  for (std::size_t i = 0; i < kRegistryCounters.size(); ++i) {
    layers.registry[i] +=
        static_cast<double>(registry.counter(kRegistryCounters[i]).value());
  }
  layers.depot_buffer_high_water =
      std::max(layers.depot_buffer_high_water,
               registry.gauge("lsl.depot.buffer_occupancy").high_water());
}

void report_layers(const Layers& l, Report& r) {
  const auto per = [&l](double x) {
    return l.transfers > 0 ? x / static_cast<double>(l.transfers) : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto reg = [&l](Counter c) {
    return l.registry.empty() ? 0.0 : l.registry[c];
  };
  const auto category = [&l](const char* name) {
    for (const auto& [tag, count] : l.kernel.category_counts) {
      if (tag == name) {
        return static_cast<double>(count);
      }
    }
    return 0.0;
  };
  const auto& k = l.kernel;
  const double mib = static_cast<double>(lsl::kMiB);
  const double flow_events = category("fluid.marker") +
                             category("net.fluid.deliver") +
                             category("net.fluid.ack") +
                             category("fluid.ramp");

  r.set("sim.events_scheduled_per_transfer",
        per(static_cast<double>(k.events_scheduled)), "events");
  r.set("sim.events_cancelled_per_transfer",
        per(static_cast<double>(k.events_cancelled)), "events");
  r.set("sim.cancel_ratio",
        ratio(static_cast<double>(k.events_cancelled),
              static_cast<double>(k.events_scheduled)),
        "ratio");
  r.set("sim.queue_high_water", static_cast<double>(k.queue_high_water),
        "entries");
  r.set("sim.events_per_s", ratio(static_cast<double>(k.events_executed),
                                   l.loop_s),
        "1/s");
  r.set("net.tx_events_per_transfer", per(category("net.link.tx")), "events");
  r.set("net.propagate_events_per_transfer",
        per(category("net.link.propagate")), "events");
  r.set("tcp.segments_per_transfer", per(reg(kSegments)), "segments");
  r.set("tcp.rto_arms_per_transfer", per(category("tcp.rto")), "events");
  r.set("tcp.timeouts_per_transfer", per(reg(kTimeouts)), "count");
  r.set("tcp.retransmit_ratio", ratio(reg(kRetransmits), reg(kSegments)),
        "ratio");
  r.set("tcp.sack_blocks_per_transfer", per(reg(kSackBlocks)), "count");
  r.set("tcp.conns_per_transfer", per(reg(kConnsOpened)), "count");
  r.set("lsl.relayed_mib_per_transfer", per(reg(kBytesRelayed) / mib), "MiB");
  r.set("lsl.depot_buffer_high_water_mib", l.depot_buffer_high_water / mib,
        "MiB");
  r.set("lsl.recovery_retries_per_transfer", per(reg(kRetries)), "count");
  r.set("lsl.handovers_per_transfer", per(reg(kHandovers)), "count");
  r.set("flow.events_per_transfer", per(flow_events), "events");
  r.set("flow.events_per_mib", ratio(flow_events, l.payload_mib),
        "events/MiB");
  r.set("testbed.grid_build_s", l.grid_build_s, "s");
  r.set("testbed.materialize_ms", per(l.materialize_s * 1e3), "ms");
  r.set("exp.build_ms", per(l.outside_loop_s * 1e3), "ms");
  r.set("exp.run_ms", per(l.loop_s * 1e3), "ms");
  r.set("nws.monitor_s", l.monitor_s, "s");
  r.set("nws.observations", reg(kObservations), "count");
  r.set("sched.tree_build_s", l.tree_build_s, "s");
  r.set("sched.route_s", l.route_s, "s");
  r.set("sched.trees_built", reg(kTreesBuilt), "count");
  r.set("sched.route_decisions", reg(kRouteDecisions), "count");
  r.set("sched.repair_fallbacks", reg(kRepairFallbacks), "count");
  r.set("obs.span_events_per_transfer",
        per(static_cast<double>(l.span_events)), "events");
  r.set("obs.overhead_ratio", l.obs_overhead_ratio, "ratio");
  r.set("fault.injected_per_transfer", per(reg(kFaultsInjected)), "count");
  r.set("bench.trace_overhead_ratio", l.trace_overhead_ratio, "ratio");
}

}  // namespace perfbench
