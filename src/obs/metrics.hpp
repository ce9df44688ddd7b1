// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The hot path is a plain integer/double store through a pointer obtained
// once at registration time -- no locks (the simulator is single-threaded)
// and no lookups after the first touch. Instruments live for the process
// lifetime inside a Registry; snapshots export to JSON or a text table.
//
// Naming convention: `subsystem.object.metric`, e.g. `tcp.conn.retransmits`,
// `lsl.depot.buffer_occupancy`, `sched.mmp.tree_build_us` (see
// docs/observability.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lsl::obs {

/// Monotonically increasing integer.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::uint64_t value_ = 0;
};

/// Instantaneous value; remembers its high-water mark.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > high_water_) {
      high_water_ = v;
    }
  }
  void add(double delta) { set(value_ + delta); }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double high_water() const { return high_water_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  double value_ = 0.0;
  double high_water_ = 0.0;
};

/// Fixed-bucket histogram. Buckets are defined by ascending upper bounds;
/// an implicit overflow bucket catches everything above the last bound.
/// observe() is a binary search over the (small) bound list plus three
/// scalar updates.
class Histogram {
 public:
  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// containing bucket; exact to within one bucket width. Clamped to the
  /// observed [min, max].
  [[nodiscard]] double quantile(double q) const;

  /// Ascending upper bounds; bucket_counts() has one extra overflow slot.
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return buckets_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);

  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  ///< bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// `count` buckets of `width` starting at `start`: start+width, start+2w, ...
[[nodiscard]] std::vector<double> linear_buckets(double start, double width,
                                                 std::size_t count);
/// `count` buckets growing geometrically from `start` by `factor`.
[[nodiscard]] std::vector<double> exponential_buckets(double start,
                                                      double factor,
                                                      std::size_t count);

/// Owns instruments; lazy registration (the first request for a name creates
/// the instrument, later requests return the same one). Registration order
/// is preserved in exports.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-unique id (never reused, unlike addresses). Instrument bundles
  /// cache resolved pointers keyed by this to notice when the thread's
  /// registry changed underneath them.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is used only on first registration of `name`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  /// Histogram with `count` exponential buckets doubling from `base`
  /// (base, 2*base, 4*base, ...): the right shape for latency-like metrics
  /// that would clip into the top bucket of a linear layout.
  Histogram& histogram_exp(std::string_view name, double base,
                           std::size_t count);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Zero every instrument's value, keeping registrations.
  void reset_values();

  /// Fold another registry's instruments into this one, creating missing
  /// instruments on the fly: counters add, gauges take the other's last
  /// value (and max high waters), histograms add buckets. The parallel
  /// trial engine merges per-trial registries through this in trial order,
  /// so merged totals are independent of worker scheduling.
  void merge_from(const Registry& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}
  [[nodiscard]] std::string to_json() const;
  bool write_json(const std::string& path) const;

  /// Registry used by all built-in instrumentation: the thread's scoped
  /// registry when one is installed (see ScopedRegistry), else the
  /// process-wide default. Hot paths never call this repeatedly -- the
  /// instrument bundles (see bundle() below) cache resolved pointers and
  /// revalidate with one integer compare.
  static Registry& global();

  /// The process-wide default registry, ignoring any thread-local override.
  static Registry& process_global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;

    [[nodiscard]] const std::string& name() const;
  };

  Entry* find(std::string_view name, Kind kind);

  std::uint64_t uid_;
  std::vector<Entry> entries_;
};

/// Redirects Registry::global() to `registry` on the current thread for the
/// scope's lifetime. The parallel trial engine installs one fresh Registry
/// per trial in the worker thread so built-in instrumentation stays
/// lock-free, then merges the per-trial registries post-hoc in trial order.
/// Nests (the previous override is restored).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

/// Process-wide enable switch for the built-in instrumentation bundles
/// (tcp/lsl/sched/nws accessors return nullptr while disabled). Explicit
/// Registry use is unaffected.
[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool enabled);
/// LSL_METRICS=off|0 disables the built-in instrumentation.
void init_metrics_from_env();

/// The calling thread's instrument bundle `Bundle` (a struct of instrument
/// pointers whose constructor registers them in a Registry), bound to
/// Registry::global(); nullptr while metrics are disabled. The bundle is
/// thread-local and revalidated by registry uid: parallel trials install a
/// per-trial ScopedRegistry, so it re-registers in place when the thread's
/// registry changes (pointers cached by callers stay valid), and the hot
/// path stays one integer compare.
template <class Bundle>
Bundle* bundle() {
  if (!metrics_enabled()) {
    return nullptr;
  }
  thread_local std::optional<Bundle> cached;
  thread_local std::uint64_t bound_uid = 0;
  Registry& reg = Registry::global();
  if (bound_uid != reg.uid()) {
    bound_uid = reg.uid();
    cached.emplace(reg);
  }
  return &*cached;
}

}  // namespace lsl::obs
