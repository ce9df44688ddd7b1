// Shared helpers for the figure/table regeneration binaries.
//
// Every binary prints: a banner naming the paper artifact it regenerates,
// the data series (CSV-friendly), and a short interpretation line comparing
// against the paper's qualitative claim. Iteration counts can be scaled
// down with LSL_BENCH_SCALE (e.g. 0.2 for smoke runs).
//
// Each bench also drops a metrics sidecar at exit: a JSON snapshot of the
// global metrics registry named <artifact>.metrics.json (in the working
// directory, or under LSL_BENCH_METRICS_DIR; LSL_BENCH_METRICS=off skips
// it). See docs/observability.md.
// Perf-trajectory output: --json <file> makes a bench write
// machine-readable {bench, metric, value} records through JsonRecords, so
// successive PRs can diff results/BENCH_*.json. Wall-clock metrics are
// named *_wall_seconds / *_per_second so determinism checks can filter them
// out with scripts/strip_wall_clock.py. --jobs N sets the trial-engine
// parallelism for benches that sweep.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "testbed/sweep.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

namespace lsl::bench {

/// Exits 2 naming the setting `name` and its rejected `value`, rather than
/// run the bench at some other setting.
[[noreturn]] inline void reject_value(const char* name, const char* value) {
  std::fprintf(stderr, "bench: bad value for %s: '%s'\n", name, value);
  std::exit(2);
}

/// LSL_BENCH_SCALE, a positive factor on iteration counts (default 1).
inline double scale_factor() {
  const char* v = std::getenv("LSL_BENCH_SCALE");
  const std::optional<double> s =
      v == nullptr ? std::optional<double>(1.0) : parse_number<double>(v);
  if (!s.has_value() || *s <= 0.0) {
    reject_value("LSL_BENCH_SCALE", v);
  }
  return *s;
}

inline std::size_t scaled(std::size_t n, std::size_t min_value = 1) {
  const auto s = static_cast<std::size_t>(static_cast<double>(n) *
                                          scale_factor());
  return s < min_value ? min_value : s;
}

/// Command-line options shared by the figure/ablation binaries.
struct BenchOptions {
  /// Trial-engine workers (--jobs N). Default 1: a bench must opt into
  /// parallelism explicitly so published figures stay attributable to a
  /// known configuration. 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// When non-empty, write {bench, metric, value} records here at the
  /// bench's discretion (--json <file>).
  std::string json_path;
  /// Measurement fidelity for benches that sweep (--fidelity=analytic,
  /// flow or packet); other benches ignore it. See docs/flow_fidelity.md.
  testbed::SweepFidelity fidelity = testbed::SweepFidelity::kAnalytic;
};

/// Reads --jobs, --json and --fidelity, each as "--name value" or
/// "--name=value". Other arguments pass through: micro benches forward them
/// to google-benchmark, and some benches parse their own.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  // The value of option `name` at argv[i] (advancing i past a separate
  // value), or nullptr when argv[i] is not that option.
  const auto value_of = [&](int& i, const char* name) -> const char* {
    const std::size_t n = std::strlen(name);
    if (std::strncmp(argv[i], name, n) != 0) {
      return nullptr;
    }
    if (argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
    return argv[i][n] == '\0' && i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(i, "--jobs")) {
      const std::optional<std::size_t> jobs = parse_number<std::size_t>(v);
      if (!jobs.has_value()) {
        reject_value("--jobs", v);
      }
      opts.jobs = *jobs;
    } else if (const char* v = value_of(i, "--json")) {
      opts.json_path = v;
    } else if (const char* v = value_of(i, "--fidelity")) {
      if (!testbed::parse_sweep_fidelity(v, opts.fidelity)) {
        reject_value("--fidelity", v);
      }
    }
  }
  return opts;
}

/// Accumulates {bench, metric, value} records and writes them as a JSON
/// array, one record per line (so text diffs and greps work record-wise).
class JsonRecords {
 public:
  explicit JsonRecords(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& metric, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    records_.push_back("{\"bench\": \"" + bench_ + "\", \"metric\": \"" +
                       metric + "\", \"value\": " + buf + "}");
  }

  /// No-op (returning true) when path is empty.
  bool write(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fputs(records_[i].c_str(), f);
      std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::string> records_;
};

namespace detail {

inline std::string& sidecar_path() {
  static std::string path;
  return path;
}

inline void write_sidecar() {
  const std::string& path = sidecar_path();
  if (path.empty()) {
    return;
  }
  if (!obs::Registry::global().write_json(path)) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
  }
}

/// "Figure 2 -- two depots" -> "figure_2", a filesystem-safe slug from the
/// artifact text up to its first " --" separator.
inline std::string artifact_slug(const char* artifact) {
  std::string slug;
  for (const char* p = artifact; *p != '\0'; ++p) {
    if (p[0] == ' ' && p[1] == '-' && p[2] == '-') {
      break;
    }
    const unsigned char c = static_cast<unsigned char>(*p);
    if (std::isalnum(c)) {
      slug += static_cast<char>(std::tolower(c));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') {
    slug.pop_back();
  }
  return slug.empty() ? "bench" : slug;
}

}  // namespace detail

/// The header of one paper artifact's report.
inline void section(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("  %s\n", description);
  std::printf("==============================================================\n");
}

/// Opens a bench: the header of its first artifact, then logging, metrics
/// and the metrics sidecar named after that artifact.
inline void banner(const char* artifact, const char* description) {
  section(artifact, description);
  lsl::init_log_from_env();
  obs::init_metrics_from_env();
  if (const char* v = std::getenv("LSL_BENCH_METRICS");
      v != nullptr && (std::string(v) == "off" || std::string(v) == "0")) {
    return;
  }
  std::string path = detail::artifact_slug(artifact) + ".metrics.json";
  if (const char* dir = std::getenv("LSL_BENCH_METRICS_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  // Touch the registry before registering the atexit hook: function-local
  // statics are destroyed in reverse construction order, so this guarantees
  // it still exists when the hook fires.
  (void)obs::Registry::global();
  const bool first = detail::sidecar_path().empty();
  detail::sidecar_path() = std::move(path);
  if (first) {
    std::atexit(&detail::write_sidecar);
  }
}

}  // namespace lsl::bench
